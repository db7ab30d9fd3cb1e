import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_graph, random_labeling
from lajoin.constructions import (
    ALL_FAMILIES,
    GENERIC_FAMILIES,
    _cycle_null_labeling,
    build_construction,
    label_cycle_join_cycle,
    label_cycle_join_null,
    label_path_join_null,
    sweep_points,
)
from lajoin.graphs import ParameterError, build_family, join
from lajoin.labelings import (
    EdgeLabeling,
    LabelingError,
    check_complement_valid,
    check_deletion_certificate,
    complement_labeling,
    delete_labeled_edge,
    export_matrix,
    induced_sums,
    two_color_infeasible,
    verify_local_antimagic,
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
    g, f = _cycle_null_labeling(2, 2)
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


def test_two_color_infeasible_examples():
    assert two_color_infeasible(2, (2, 1)) is True  # 3-vertex path
    assert two_color_infeasible(3, (3, 1)) is False  # x=2, y=6 works
    assert two_color_infeasible(4, (2, 2)) is True  # equal parts always infeasible


def test_two_color_infeasible_rejects_bad_parts():
    with pytest.raises(ParameterError):
        two_color_infeasible(3, (1, 2))


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
    g = build_family(kind, *params)
    infeasible = two_color_infeasible(g.q, parts)
    exists = _exhaustive_two_colorable(g, parts)
    if infeasible:
        assert not exists
    if exists:
        assert not infeasible


def test_deletion_certificate_half_wheel_cycle_edge():
    g, f = _cycle_null_labeling(2, 2)
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
    g, f = _cycle_null_labeling(2, 2)
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
    ],
    ids=["bool-label", "float-label", "no-schema", "wrong-schema", "no-labels", "no-edge",
         "labels-not-list", "float-endpoint", "bad-role", "graph-no-vertices"],
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
