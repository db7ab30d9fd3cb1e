import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import built_graphs, random_graph, random_labeling
from lajoin.constructions import (
    ALL_FAMILIES,
    GENERIC_FAMILIES,
    build_construction,
    label_cycle_join_cycle,
    label_cycle_join_null,
    label_path_join_null,
    sweep_points,
)
from lajoin.graphs import Graph, ParameterError, build_family, delete_edge, edge, is_int_pair, join
from lajoin.labelings import (
    EdgeLabeling,
    LabelingCertificate,
    LabelingError,
    check_complement_valid,
    check_deletion_certificate,
    complement_labeling,
    delete_labeled_edge,
    export_matrix,
    induced_sums,
    verify_local_antimagic,
    vertex_sums,
)


def test_induced_sums_path():
    g = build_family("path", 3)
    sums = induced_sums(g, {(1, 2): 1, (2, 3): 2})
    assert sums == {1: 1, 2: 3, 3: 2}


def test_induced_sums_from_generated_tables():
    res = label_path_join_null(3, 8)
    assert res.labeling.sums[1] == 208  # first path vertex
    res = label_cycle_join_null(3, 3)
    assert res.labeling.sums[7] == 129  # first null vertex


def test_induced_sums_odd_cycle_join():
    from lajoin.constructions import label_odd_cycle_join_even_null

    res = label_odd_cycle_join_even_null(3)
    assert res.labeling.sums[res.graph.v_vertices[0]] == 175


def test_induced_sums_rejects_bad_domain():
    g = build_family("path", 3)
    with pytest.raises(LabelingError):
        induced_sums(g, {(1, 2): 1})
    with pytest.raises(LabelingError):
        induced_sums(g, {(1, 2): 1, (2, 3): 1})


def test_vertex_sums_covers_every_vertex_and_checks_nothing():
    # Vertex 4 has no edge; the repeated label is summed as given, since
    # the bijection checks belong to induced_sums and the verifier.
    assert vertex_sums({(1, 2): 5, (2, 3): 5}, 4) == {1: 5, 2: 10, 3: 5, 4: 0}
    res = label_cycle_join_null(3, 3)
    assert vertex_sums(res.labeling.labels, res.graph.n) == induced_sums(res.graph, res.labeling)


def test_verify_reports_labels_off_the_edge_set():
    g = build_family("path", 3)
    cert = verify_local_antimagic(g, EdgeLabeling(g, {(1, 2): 1, (1, 3): 2}))
    assert (cert.bijection_ok, cert.proper, cert.color_count, cert.color_classes) == (False, False, 0, {})
    cert = verify_local_antimagic(g, EdgeLabeling(g, {(1, 2): 2, (2, 3): 2}))
    assert not cert.bijection_ok and cert.proper and cert.color_count == 2


def test_verify_triangle():
    g = build_family("cycle", 3)
    cert = verify_local_antimagic(g, EdgeLabeling(g, {(1, 2): 1, (2, 3): 2, (1, 3): 3}))
    assert cert.ok and cert.color_count == 3
    assert set(cert.color_classes) == {3, 4, 5}


def test_verify_reports_failure_pair():
    g = build_family("path", 3)
    # both endpoints of (1,2) get sum 1+2=3 vs middle 3: make adjacent equal
    f = EdgeLabeling(g, {(1, 2): 1, (2, 3): 2})
    cert = verify_local_antimagic(g, f)
    assert cert.ok
    g4 = build_family("path", 4)
    bad = EdgeLabeling(g4, {(1, 2): 1, (2, 3): 2, (3, 4): 1})
    cert = verify_local_antimagic(g4, bad)
    assert not cert.bijection_ok


def test_verify_verdicts():
    g = build_family("cycle", 3)
    f = EdgeLabeling(g, {(1, 2): 1, (2, 3): 2, (1, 3): 3})
    assert verify_local_antimagic(g, f, lower_bound=3).verdict == "tight"
    assert verify_local_antimagic(g, f, lower_bound=2).verdict == "above-lower-bound"


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_sum_identity_random(seed):
    rng = random.Random(seed)
    g = random_graph(rng)
    f = random_labeling(rng, g)
    assert sum(f.sums.values()) == g.q * (g.q + 1)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_complement_identity_random(seed):
    rng = random.Random(seed)
    g = random_graph(rng)
    f = random_labeling(rng, g)
    comp = complement_labeling(g, f)
    q = g.q
    assert all(comp.sums[v] + f.sums[v] == g.degree(v) * (q + 1) for v in g.vertices)
    again = complement_labeling(g, comp)
    assert again.labels == f.labels


def test_complement_on_cycle_preserves_colors():
    g = build_family("cycle", 4)
    f = EdgeLabeling(g, {(1, 2): 1, (2, 3): 2, (3, 4): 3, (1, 4): 4})
    comp = complement_labeling(g, f)
    assert sorted(comp.labels.values()) == [1, 2, 3, 4]
    a, b = verify_local_antimagic(g, f), verify_local_antimagic(g, comp)
    assert a.color_count == b.color_count


def test_complement_valid_on_regular_graphs(rng):
    g = build_family("cycle", 6)
    for _ in range(20):
        f = random_labeling(rng, g)
        ok, witness = check_complement_valid(g, f)
        assert ok and witness is None


def test_complement_valid_star():
    g = build_family("complete-bipartite", 1, 3)
    f = EdgeLabeling(g, {(1, 2): 1, (1, 3): 2, (1, 4): 3})
    ok, witness = check_complement_valid(g, f)
    assert ok
    comp = complement_labeling(g, f)
    assert verify_local_antimagic(g, comp).color_count == verify_local_antimagic(g, f).color_count


def test_complement_valid_for_half_wheel_labeling():
    # the reflected labeling drives the join-edge deletion scheme
    res = label_cycle_join_null(2, 2)
    g, f = res.graph, res.labeling
    ok, _ = check_complement_valid(g, f)
    assert ok


def test_complement_valid_agreement_exhaustive_small():
    # Whenever the pair conditions hold, the complement is proper with the
    # same number of colors; exhaustive over all labelings of small graphs.
    graphs = [
        build_family("path", 4),
        build_family("complete-bipartite", 1, 3),
        build_family("cycle", 5),
        build_family("complete", 4),
        join(build_family("path", 2), build_family("null", 3)),  # q = 7
        join(build_family("cycle", 3), build_family("null", 2)),  # q = 9 is too big; skip below
    ]
    for g in graphs:
        if g.q > 8:
            continue
        for perm in itertools.permutations(range(1, g.q + 1)):
            f = EdgeLabeling(g, dict(zip(g.edges, perm)))
            cert = verify_local_antimagic(g, f)
            if not cert.proper:
                continue
            ok, _ = check_complement_valid(g, f)
            if ok:
                comp_cert = verify_local_antimagic(g, complement_labeling(g, f))
                assert comp_cert.proper
                assert comp_cert.color_count == cert.color_count


def pairwise_complement_valid(g, f):
    """Reference for check_complement_valid: the two pair conditions, pair by pair."""
    sums = f.sums
    q = g.q
    vs = list(g.vertices)
    for i, x in enumerate(vs):
        for y in vs[i + 1 :]:
            dx, dy = g.degree(x), g.degree(y)
            if sums[x] == sums[y]:
                if dx != dy:
                    return False, (x, y)
            elif (q + 1) * (dx - dy) == sums[x] - sums[y]:
                return False, (x, y)
    return True, None


def violates_a_pair_condition(g, f, x, y) -> bool:
    sx, sy = f.sums[x], f.sums[y]
    dx, dy = g.degree(x), g.degree(y)
    if sx == sy:
        return dx != dy
    return (g.q + 1) * (dx - dy) == sx - sy


def assert_complement_check_agrees(g, f):
    ok, pair = check_complement_valid(g, f)
    assert ok == pairwise_complement_valid(g, f)[0], (g.edges, f.labels)
    if ok:
        assert pair is None
    else:
        x, y = pair
        assert x < y and violates_a_pair_condition(g, f, x, y), (g.edges, f.labels, pair)


def test_complement_check_matches_the_pairwise_reference_exhaustively():
    graphs = [
        build_family("path", 4),
        build_family("complete-bipartite", 1, 3),
        build_family("complete-bipartite", 2, 3),
        build_family("cycle", 5),
        build_family("complete", 4),
        join(build_family("path", 2), build_family("null", 2)),
        join(build_family("path", 2), build_family("null", 3)),
        join(build_family("cycle", 4), build_family("null", 1)),  # q = 8
    ]
    failing = 0
    for g in graphs:
        for perm in itertools.permutations(range(1, g.q + 1)):
            f = EdgeLabeling(g, dict(zip(g.edges, perm)))
            assert_complement_check_agrees(g, f)
            failing += not check_complement_valid(g, f)[0]
    assert failing > 1000  # both outcomes are exercised


def test_complement_check_matches_the_pairwise_reference_on_random_labelings():
    rng = random.Random(20261018)
    failing = 0
    for _ in range(2500):
        g = random_graph(rng, 3, 10)
        f = random_labeling(rng, g)
        assert_complement_check_agrees(g, f)
        failing += not check_complement_valid(g, f)[0]
    assert 0 < failing < 2500


# The pretty footers end in the blank own and sum cells, ten spaces wide.
MINUS_JOIN_EDGE_CSV = """\
,v1,v2,v3,from_own_edges,induced_sum
u1,8,10,7,27,52
u2,3,2,4,26,35
u3,11,9,5,27,52
u4,,1,6,28,35
induced_sum,22,22,22,,
"""

MINUS_JOIN_EDGE_PRETTY = """\
     v1  v2  v3  own  sum
 u1   8  10   7   27   52
 u2   3   2   4   26   35
 u3  11   9   5   27   52
 u4   .   1   6   28   35
sum  22  22  22
""".replace("22\n", "22" + " " * 10 + "\n")

CYCLE_CYCLE_CSV = """\
,v1,v2,v3,from_own_edges,induced_sum
u1,8,6,9,5,28
u2,13,14,12,6,45
u3,5,7,11,5,28
u4,16,15,10,4,45
from_own_edges,37,36,35,,
induced_sum,79,78,77,,
"""

CYCLE_CYCLE_PRETTY = """\
     v1  v2  v3  own  sum
 u1   8   6   9    5   28
 u2  13  14  12    6   45
 u3   5   7  11    5   28
 u4  16  15  10    4   45
own  37  36  35
sum  79  78  77
""".replace("35\n", "35" + " " * 10 + "\n").replace("77\n", "77" + " " * 10 + "\n")


@pytest.mark.parametrize("family, params, csv, pretty", [
    # a deleted join edge leaves a blank cell
    ("cycle-join-null-minus-edge", {"m": 2, "n": 2, "which": "join-edge"},
     MINUS_JOIN_EDGE_CSV, MINUS_JOIN_EDGE_PRETTY),
    # own edges on the second side add a footer row
    ("cycle-join-cycle", {"m": 2, "n": 2}, CYCLE_CYCLE_CSV, CYCLE_CYCLE_PRETTY),
])
def test_matrix_views_are_pinned(family, params, csv, pretty):
    res = build_construction(family, params)
    matrix = export_matrix(res.graph, res.labeling)
    assert matrix.to_csv() == csv
    assert matrix.to_pretty() == pretty


def _exhaustive_two_colorable(g, parts) -> bool:
    # Brute force: does any proper labeling induce exactly two colors?
    for perm in itertools.permutations(range(1, g.q + 1)):
        labels = dict(zip(g.edges, perm))
        sums = {v: 0 for v in g.vertices}
        for (a, b), lab in labels.items():
            sums[a] += lab
            sums[b] += lab
        if any(sums[a] == sums[b] for a, b in g.edges):
            continue
        if len(set(sums.values())) == 2:
            return True
    return False


@pytest.mark.parametrize(
    "kind,params,parts",
    [
        ("path", (3,), (2, 1)),
        ("path", (4,), (2, 2)),
        ("path", (5,), (3, 2)),
        ("complete-bipartite", (1, 3), (3, 1)),
        ("complete-bipartite", (1, 4), (4, 1)),
        ("complete-bipartite", (1, 6), (6, 1)),
        ("complete-bipartite", (2, 2), (2, 2)),
        ("complete-bipartite", (2, 3), (3, 2)),
        ("complete-bipartite", (2, 4), (4, 2)),
        ("path", (7,), (4, 3)),
    ],
)
def test_two_color_infeasible_matches_exhaustive(kind, params, parts):
    # Two colours on a bipartite graph with parts X > Y need colours x < y
    # with xX = yY = q(q+1)/2, the label total; equal parts allow none.
    g = build_family(kind, *params)
    x_count, y_count = parts
    half = g.q * (g.q + 1) // 2
    feasible = x_count != y_count and half % x_count == 0 and half % y_count == 0
    exists = _exhaustive_two_colorable(g, parts)
    assert feasible or not exists


def test_deletion_certificate_half_wheel_cycle_edge():
    res = label_cycle_join_null(2, 2)
    g, f = res.graph, res.labeling
    assert check_deletion_certificate(g, f, (3, 4)) is True  # label-1 cycle edge
    two = f.edge_with_label(2)
    assert check_deletion_certificate(g, f, two) is False


def test_deletion_certificate_two_cycle_join():
    res = label_cycle_join_cycle(3, 3)
    assert check_deletion_certificate(res.graph, res.labeling, (5, 6)) is True


def test_deletion_certificate_needs_uniform_degrees():
    # a path's proper labeling has classes mixing degrees 1 and 2
    g = build_family("path", 4)
    f = EdgeLabeling(g, {(1, 2): 1, (2, 3): 2, (3, 4): 3})
    assert check_deletion_certificate(g, f, (1, 2)) is False


def test_delete_labeled_edge_shifts_by_degree():
    res = label_cycle_join_null(2, 2)
    g, f = res.graph, res.labeling
    h, f2 = delete_labeled_edge(g, f, (3, 4))
    for v in g.vertices:
        assert f2.sums[v] == f.sums[v] - g.degree(v)
    cert = verify_local_antimagic(h, f2)
    assert cert.ok and cert.color_count == 3
    with pytest.raises(ParameterError):
        delete_labeled_edge(g, f, f.edge_with_label(5))


def test_matrix_margins_internal_consistency():
    res = label_cycle_join_cycle(2, 2)
    mat = export_matrix(res.graph, res.labeling)
    mat.validate()
    for i, name in enumerate(mat.u_names):
        assert sum(x for x in mat.grid[i] if x is not None) + mat.u_side[i] == mat.u_margins[i]
    for j in range(len(mat.v_names)):
        col = sum(row[j] for row in mat.grid if row[j] is not None)
        assert col + mat.v_side[j] == mat.v_margins[j]


def test_matrix_own_side_sums_match_definition():
    # u_side / v_side against their per-vertex definition: the labels on
    # edges with both endpoints on that vertex's side of the join.
    families = [f for f in ALL_FAMILIES if f not in GENERIC_FAMILIES]
    assert {"path-join-cycle", "complete-join-odd-cycle"} <= set(families)
    checked = 0
    for family in families:
        for params in sweep_points(family, 40):
            res = build_construction(family, params)
            g, labels = res.graph, res.labeling.labels
            us, vs = g.u_vertices, g.v_vertices

            def own(x, side):
                return sum(lab for (a, b), lab in labels.items() if x in (a, b) and {a, b} <= set(side))

            mat = export_matrix(g, res.labeling)
            assert mat.u_side == tuple(own(u, us) for u in us), (family, params)
            has_v_edges = any({a, b} <= set(vs) for a, b in labels)
            expected_v = tuple(own(v, vs) for v in vs) if has_v_edges else None
            assert mat.v_side == expected_v, (family, params)
            checked += 1
    assert checked == 89


def test_matrix_requires_join():
    g = build_family("path", 4)
    f = EdgeLabeling(g, {(1, 2): 1, (2, 3): 2, (3, 4): 3})
    with pytest.raises(ParameterError):
        export_matrix(g, f)


def test_matrix_refuses_labels_that_are_not_a_bijection_on_the_edges():
    res = build_construction("cycle-join-null", {"m": 2, "n": 2})
    g, f = res.graph, res.labeling
    twice = EdgeLabeling.from_values(g, f.values[1:2] + f.values[1:])
    off = EdgeLabeling(g, dict(list(f.labels.items())[1:]))
    wider = build_construction("cycle-join-null", {"m": 2, "n": 3}).graph
    for graph, labeling, message in [
        (g, twice, "labels must be a bijection onto 1..q"),
        (g, off, "labels must be defined on exactly the edge set"),
        (wider, f, "labels must be defined on exactly the edge set"),  # f labels another graph
    ]:
        with pytest.raises(LabelingError) as exc:
            export_matrix(graph, labeling)
        assert str(exc.value) == message


def test_matrix_with_deleted_join_edge_has_hole():
    res = label_cycle_join_null(2, 2)
    from lajoin.labelings import complement_labeling as comp

    g, f = res.graph, res.labeling
    h = comp(g, f)
    g2, f2 = delete_labeled_edge(g, h, (4, 5))
    mat = export_matrix(g2, f2)
    assert mat.grid[3][0] is None
    mat.validate()


def test_labeling_json_round_trip():
    res = label_path_join_null(2, 3)
    data = res.labeling.to_json()
    back = EdgeLabeling.from_json(data)
    assert back.labels == res.labeling.labels
    assert back.graph == res.graph


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["labels"][0].update(label=True),
        lambda d: d["labels"][0].update(label=float(d["labels"][0]["label"])),
        lambda d: d.pop("schema"),
        lambda d: d.update(schema="v2"),
        lambda d: d.pop("labels"),
        lambda d: d["labels"][0].pop("edge"),
        lambda d: d.update(labels={}),
        lambda d: d["labels"][0]["edge"].__setitem__(0, float(d["labels"][0]["edge"][0])),
        lambda d: d["graph"]["vertices"][0].update(role="ux"),
        lambda d: d["graph"].pop("vertices"),
        lambda d: d["labels"].insert(1, {"edge": d["labels"][0]["edge"][::-1], "label": 2}),
    ],
    ids=["bool-label", "float-label", "no-schema", "wrong-schema", "no-labels", "no-edge",
         "labels-not-list", "float-endpoint", "bad-role", "graph-no-vertices", "edge-twice"],
)
def test_labeling_from_json_rejects_malformed(mutate):
    res = label_path_join_null(2, 3)
    data = json.loads(json.dumps(res.labeling.to_json()))
    first = min(data["labels"], key=lambda item: item["label"])
    data["labels"].remove(first)
    data["labels"].insert(0, first)  # label 1, so True and 1.0 keep a bijection
    mutate(data)
    with pytest.raises(LabelingError):
        EdgeLabeling.from_json(data)


def per_item_graph(data: dict, base: Graph) -> Graph:
    # Reference: Graph.from_json reading the edges one at a time, for a
    # document whose vertices and family are those of ``base``.
    pairs = data["edges"]
    if not all(is_int_pair(e) for e in pairs):
        raise ParameterError('graph "edges" must be a list of integer pairs')
    return Graph(base.n, tuple(edge(a, b) for a, b in pairs), base.roles, base.family)


def per_item_labeling(data: dict, base: Graph) -> EdgeLabeling:
    # Reference: EdgeLabeling.from_json with the per-item loop alone.
    try:
        g = per_item_graph(data["graph"], base)
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
    if labels.keys() != set(g.edges):
        raise LabelingError("labels must be defined on exactly the edge set")
    return EdgeLabeling(g, labels)


def _read(fn, *args):
    # What a reader gives: the graph and labels in insertion order, or the
    # exception type and message.
    try:
        out = fn(*args)
    except (LabelingError, ParameterError) as exc:
        return type(exc), str(exc)
    if isinstance(out, Graph):
        return out
    return out.graph, list(out.labels.items())


_READER_BASES = [
    build_construction(family, params).labeling
    for family, params in [("path-join-null", {"m": 2, "N": 3}), ("cycle-join-cycle", {"m": 3, "n": 3}),
                           ("p7-o3", {})]
]
_EDGE_FAULTS = [
    lambda e: e[::-1],
    lambda e: [e[0], e[0]],
    lambda e: [True, e[1]],
    lambda e: [e[0], float(e[1])],
    lambda e: e[:1],
    lambda e: [*e, e[0]],
]


@st.composite
def mutated_labelings(draw):
    """A labeling document and the graph it was built from, with up to four
    faults: a reversed, self-loop, true, 2.0, 1- or 3-item edge in either
    list, an edge given twice, a true or 2.0 label, a missing key, or an
    item that is not a dict."""
    base = draw(st.sampled_from(_READER_BASES))
    doc = json.loads(json.dumps(base.to_json()))
    edges, items = doc["graph"]["edges"], doc["labels"]
    for _ in range(draw(st.integers(0, 4))):
        fault = draw(st.sampled_from(["reverse", "edge", "label-edge", "edge-twice", "label-edge-twice",
                                      "label", "missing", "not-dict"]))
        i = draw(st.integers(0, len(items) - 1))
        j = i % len(edges)
        if fault == "reverse":  # valid: both readers normalize a reversed edge
            pairs = draw(st.sampled_from([edges, [item.get("edge") for item in items if isinstance(item, dict)]]))
            if pairs and isinstance(pairs[i % len(pairs)], list):
                pairs[i % len(pairs)].reverse()
        elif fault == "edge" and len(edges[j]) == 2:
            edges[j] = draw(st.sampled_from(_EDGE_FAULTS))(edges[j])
        elif fault == "edge-twice":
            edges.insert(draw(st.integers(0, len(edges))), list(draw(st.sampled_from(edges))))
        elif not isinstance(items[i], dict):
            continue
        elif fault == "label-edge" and isinstance(items[i].get("edge"), list) and len(items[i]["edge"]) == 2:
            items[i]["edge"] = draw(st.sampled_from(_EDGE_FAULTS))(items[i]["edge"])
        elif fault == "label-edge-twice":
            items.insert(draw(st.integers(0, len(items))), dict(items[i]))
        elif fault == "label":
            items[i]["label"] = draw(st.sampled_from([True, 2.0, float(items[i].get("label", 1))]))
        elif fault == "missing":
            items[i].pop(draw(st.sampled_from(["edge", "label"])), None)
        elif fault == "not-dict":
            items[i] = draw(st.sampled_from([items[i].get("edge"), "edge", None, 3, []]))
    return doc, base.graph


@settings(max_examples=300)
@given(mutated_labelings())
def test_bulk_readers_agree_with_the_per_item_loop(case):
    doc, base = case
    assert _read(Graph.from_json, doc["graph"]) == _read(per_item_graph, doc["graph"], base)
    assert _read(EdgeLabeling.from_json, doc) == _read(per_item_labeling, doc, base)


@pytest.mark.parametrize("family,params", [
    ("cycle-join-null-minus-edge", {"m": 2, "n": 3, "which": "join-edge"}),  # a blank cell
    ("cycle-join-cycle", {"m": 2, "n": 2}),  # own edges on the second side
])
def test_matrix_of_a_graph_whose_v_vertices_come_first(family, params):
    # Roles read from JSON may give the second side the smaller ids, so a
    # cell's edge is (v, u); the matrix must not depend on the numbering.
    res = build_construction(family, params)
    g, f = res.graph, res.labeling
    order = g.v_vertices + g.u_vertices
    new = {old: i for i, old in enumerate(order, 1)}
    h = Graph(g.n, tuple(sorted(edge(new[a], new[b]) for a, b in g.edges)), tuple(map(g.role_of, order)))
    moved = EdgeLabeling(h, {edge(new[a], new[b]): lab for (a, b), lab in f.labels.items()})
    read = EdgeLabeling.from_json(json.loads(json.dumps(moved.to_json())))
    assert read.graph.v_vertices < read.graph.u_vertices
    assert export_matrix(read.graph, read) == export_matrix(g, f)


# -- the vertex-sum kernel and the bijection check, against the code they
# replaced: a dict of sums and a sort of every label


def _reference_vertex_sums(labels, n):
    sums = {v: 0 for v in range(1, n + 1)}
    for (a, b), lab in labels.items():
        sums[a] += lab
        sums[b] += lab
    return sums


def _reference_induced_sums(g, labels):
    if labels.keys() != g._edge_set:
        raise LabelingError("labels must be defined on exactly the edge set")
    if sorted(labels.values()) != list(range(1, g.q + 1)):
        raise LabelingError("labels must be a bijection onto 1..q")
    return _reference_vertex_sums(labels, g.n)


def _reference_verify(g, f, lower_bound=None):
    labels = f.labels
    if labels.keys() != g._edge_set:
        return LabelingCertificate(False, False, {}, 0, lower_bound, None, None)
    bijection_ok = sorted(labels.values()) == list(range(1, g.q + 1))
    sums = _reference_vertex_sums(labels, g.n)
    failure = None
    for a, b in g.edges:
        if sums[a] == sums[b]:
            failure = (a, b)
            break
    classes = {}
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
    return LabelingCertificate(bijection_ok, failure is None, color_classes, count, lower_bound, verdict, failure)


@st.composite
def odd_labelings(draw):
    """A random graph and a permutation of 1..q on its edges, with up to three
    labels replaced by a duplicate, 0, q+1, True, 2.0, 2.5 or NaN, and at
    times one edge left unlabeled."""
    n = draw(st.integers(2, 7))
    edges = draw(st.lists(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2))),
                          min_size=1, unique=True))
    g = Graph(n, tuple(edges), tuple(f"u{i}" for i in range(1, n + 1)))
    labels = dict(zip(g.edges, draw(st.permutations(range(1, g.q + 1)))))
    for _ in range(draw(st.integers(0, 3))):
        twin = labels[draw(st.sampled_from(g.edges))]
        odd = draw(st.sampled_from([twin, 0, g.q + 1, True, 2.0, 2.5, float("nan")]))
        labels[draw(st.sampled_from(g.edges))] = odd
    if draw(st.integers(0, 9)) == 0:
        del labels[draw(st.sampled_from(g.edges))]
    return g, labels


def _outcome(fn, *args):
    # repr tells 2 from 2.0 and compares NaN keys, which == cannot
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _key_orders(g, labels):
    """The labels as drawn (in edge order), in sorted key order as
    ``from_json`` gives them, and with the last key moved off the graph.
    The last two take the set comparison after the ordered edge check,
    unless the edges happen to be sorted."""
    yield labels
    yield dict(sorted(labels.items()))
    if labels:
        *_, last = labels
        off = {e: lab for e, lab in labels.items() if e != last}
        off[(g.n, g.n + 1)] = labels[last]
        yield off


@settings(max_examples=400)
@given(odd_labelings(), st.sampled_from([None, 1, 3]))
# unsorted edges, so that the sorted key order is not the edge order
@example((Graph(3, ((2, 3), (1, 2), (1, 3)), ("u1", "u2", "u3")), {(2, 3): 1, (1, 2): 2, (1, 3): 3}), None)
def test_sum_kernel_and_bijection_check_match_the_sorting_code(case, lower_bound):
    g, drawn = case
    for labels in _key_orders(g, drawn):
        f = EdgeLabeling(g, labels)
        assert repr(verify_local_antimagic(g, f, lower_bound)) == repr(_reference_verify(g, f, lower_bound))
        assert _outcome(induced_sums, g, labels) == _outcome(_reference_induced_sums, g, labels)
        assert _outcome(vertex_sums, labels, g.n) == _outcome(_reference_vertex_sums, labels, g.n)


@pytest.mark.parametrize("bad", [0, -1, 4])
def test_vertex_sums_rejects_an_endpoint_outside_1_to_n(bad):
    for labels in ({(1, 2): 1, (bad, 3): 2}, {(1, 2): 1, (3, bad): 2}):
        with pytest.raises(KeyError) as info:
            vertex_sums(labels, 3)
        assert info.value.args == (bad,)


# -- labelings held as one label tuple in the graph's edge order, against
# the dicts they replaced


@st.composite
def labeled_graphs(draw):
    """A graph as the generators build it, labels for its edges in edge order
    (a permutation of 1..q, at times with one label repeated), and the
    (edge, label) pairs in a shuffled order."""
    g = draw(built_graphs)
    values = list(draw(st.permutations(range(1, g.q + 1))))
    if g.q >= 2 and draw(st.integers(0, 4)) == 0:
        values[draw(st.integers(0, g.q - 1))] = values[draw(st.integers(0, g.q - 1))]
    return g, tuple(values), draw(st.permutations(list(zip(g.edges, values))))


@settings(max_examples=200)
@given(labeled_graphs())
def test_labelings_from_values_mappings_and_json_agree(case):
    g, values, shuffled = case
    from_values = EdgeLabeling.from_values(g, values)
    from_mapping = EdgeLabeling(g, dict(shuffled))
    from_json = EdgeLabeling.from_json(json.loads(json.dumps(from_values.to_json())))
    assert from_json.graph == g
    labels = dict(zip(g.edges, values))
    for f in (from_values, from_mapping, from_json):
        assert f.values == values and f.labels == labels and tuple(f.labels) == g.edges
        assert repr(verify_local_antimagic(g, f)) == repr(_reference_verify(g, f))
        assert repr(verify_local_antimagic(f.graph, f)) == repr(_reference_verify(g, f))
    q = g.q
    comp = complement_labeling(g, from_mapping)
    assert comp.labels == {e: q + 1 - lab for e, lab in labels.items()} and tuple(comp.labels) == g.edges
    if 1 in values:
        e = g.edges[values.index(1)]
        h, deleted = delete_labeled_edge(g, from_json, e[::-1])
        assert h == delete_edge(g, e) and deleted.graph is h
        assert deleted.labels == {x: lab - 1 for x, lab in labels.items() if x != e}
        assert tuple(deleted.labels) == h.edges


def test_from_values_needs_one_label_per_edge():
    g = build_family("path", 3)
    assert EdgeLabeling.from_values(g, [2, 1]).labels == {(1, 2): 2, (2, 3): 1}
    for values in ([1], [1, 2, 3]):
        with pytest.raises(LabelingError, match=f"{len(values)} labels for the 2 edges"):
            EdgeLabeling.from_values(g, values)
