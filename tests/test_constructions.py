import collections
import hashlib
import itertools
import json
import re
from pathlib import Path

import pytest

from lajoin.constructions import (
    ALL_FAMILIES,
    CYCLE_CYCLE_COLLISION,
    FAMILIES,
    GENERIC_FAMILIES,
    JOIN_EDGE_COLLISION,
    CitedCaseError,
    _args,
    _in_edge_order,
    _wrapped_cycle_labels,
    build_construction,
    edge_count,
    family_graph,
    label_complete_join_odd_cycle,
    label_cycle_join_complete,
    label_cycle_join_cycle,
    label_cycle_join_cycle_minus_edge,
    label_cycle_join_null,
    label_cycle_join_null_minus_edge,
    label_generic_join_complete_bipartite,
    label_generic_join_cycle,
    label_generic_join_null,
    label_odd_cycle_join_even_null,
    label_p7_o3,
    label_path_join_complete,
    label_path_join_cycle,
    label_path_join_null,
    sweep_points,
)
from lajoin.arrays import magic_rectangle
from lajoin.graphs import Graph, ParameterError, build_family, edge, join
from lajoin import labelings
from lajoin.labelings import (
    EdgeLabeling,
    complement_labeling,
    complement_sums,
    induced_sums,
    verify_local_antimagic,
)


def assert_verified(res):
    cert = verify_local_antimagic(res.graph, res.labeling)
    assert cert.ok, f"equal sums on adjacent pair {cert.failure}"
    assert frozenset(cert.color_classes) == res.claimed_colors
    assert cert.color_count == res.claimed_chi_la
    labels = sorted(res.labeling.labels.values())
    assert labels[0] == 1 and labels[-1] == res.graph.q
    return cert


def test_path_join_null_even_golden():
    res = label_path_join_null(3, 8)
    assert res.claimed_colors == frozenset({208, 274, 177})
    assert_verified(res)


def test_path_join_null_odd_golden():
    res = label_path_join_null(3, 5)
    assert res.claimed_colors == frozenset({86, 129, 123})
    assert_verified(res)


def test_path_join_null_two_apex():
    res = label_path_join_null(4, 2)
    assert res.claimed_colors == frozenset({9 * 4 - 2, 11 * 4 - 2, 8 * 16 - 4})
    assert_verified(res)


def assert_refused_plainly(generator, *args):
    # A generator refuses a cited point as it refuses any point it does not
    # label; only build_construction raises CitedCaseError.
    with pytest.raises(ParameterError) as exc:
        generator(*args)
    assert type(exc.value) is ParameterError


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: label_path_join_complete(2, 1), "this scheme needs r >= 2 when m >= 2"),
        (lambda: label_cycle_join_null_minus_edge(2, 2, "x"), "which must be cycle-edge or join-edge, got 'x'"),
        # the registry's edge count reads the same parts, so it refuses the same point
        (lambda: edge_count("cycle-join-null-minus-edge", {"m": 2, "n": 2, "which": "x"}),
         "which must be cycle-edge or join-edge, got 'x'"),
    ],
    ids=["path-complete-r1", "minus-edge-unknown-which", "edge-count-unknown-which"],
)
def test_generator_refusals_name_the_reason(call, message):
    with pytest.raises(ParameterError) as info:
        call()
    assert type(info.value) is ParameterError and str(info.value) == message


def test_path_join_null_cited_routes():
    assert_refused_plainly(label_path_join_null, 2, 1)
    with pytest.raises(CitedCaseError) as exc:
        build_construction("path-join-null", {"m": 2, "N": 1})
    assert exc.value.cited_chi_la == 4
    assert exc.value.graph.q == 7
    assert_refused_plainly(label_path_join_null, 1, 4)
    with pytest.raises(CitedCaseError) as exc:
        build_construction("path-join-null", {"m": 1, "N": 4})
    assert exc.value.cited_chi_la == 3


def test_path_join_cycle_extends_null_join():
    res = label_path_join_cycle(3, 3)
    vs = res.graph.v_vertices
    assert [res.labeling.sums[v] for v in vs] == [201, 199, 198, 199, 198]
    us = res.graph.u_vertices
    assert {res.labeling.sums[u] for u in us} == {86, 129}
    assert_verified(res)


def test_path_join_cycle_single_edge_path():
    res = label_path_join_cycle(1, 2)
    sums = res.labeling.sums
    assert sums[1] == 13 and sums[2] == 22
    assert [sums[v] for v in res.graph.v_vertices] == [26, 25, 24]
    assert_verified(res)


@pytest.mark.parametrize("m,n", [(2, 2), (1, 3), (2, 4)])
def test_path_join_cycle_small(m, n):
    assert_verified(label_path_join_cycle(m, n))


def test_path_join_complete_two():
    res = label_path_join_complete(2, 2)
    assert res.claimed_colors == frozenset({16, 20, 38, 46})
    assert_verified(res)


def test_path_join_complete_even():
    res = label_path_join_complete(2, 4)
    assert res.claimed_chi_la == 6
    assert_verified(res)


def test_path_join_complete_odd():
    res = label_path_join_complete(2, 5)
    assert res.claimed_chi_la == 7
    assert_verified(res)


def test_path_join_complete_triangle_routed():
    res = label_path_join_complete(2, 3)
    assert res.labeling.labels == label_path_join_cycle(2, 2).labeling.labels
    assert res.claimed_chi_la == 5
    assert_verified(res)


def test_path_join_complete_whole_graph_complete():
    res = label_path_join_complete(1, 3)
    assert res.claimed_chi_la == 5
    assert res.graph.q == 10
    assert_verified(res)
    res = label_path_join_complete(1, 1)  # triangle
    assert res.claimed_chi_la == 3
    assert_verified(res)


def test_cycle_join_null_golden():
    res = label_cycle_join_null(3, 3)
    assert res.claimed_colors == frozenset({93, 136, 129})
    assert_verified(res)


def test_cycle_join_null_smallest():
    res = label_cycle_join_null(2, 2)
    assert res.claimed_colors == frozenset({28, 45, 42})
    assert_verified(res)


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("n", range(2, 7))
def test_cycle_join_null_sweep(m, n):
    assert_verified(label_cycle_join_null(m, n))


def test_cycle_join_null_wheel_cited():
    assert_refused_plainly(label_cycle_join_null, 3, 1)
    with pytest.raises(CitedCaseError) as exc:
        build_construction("cycle-join-null", {"m": 3, "n": 1})
    assert exc.value.cited_chi_la == 3


def test_cycle_and_path_null_join_linkage():
    # first-side sums in the cycle version exceed the path version by 2n+1
    for m, n in itertools.product(range(2, 7), range(2, 7)):
        cyc = label_cycle_join_null(m, n).labeling.sums
        pat = label_path_join_null(m, 2 * n - 1).labeling.sums
        for u in range(1, 2 * m + 1):
            assert cyc[u] == pat[u] + 2 * n + 1


def test_odd_cycle_join_even_null_golden():
    res = label_odd_cycle_join_even_null(3)
    assert res.claimed_colors == frozenset({175, 152, 216, 200})
    f = res.labeling
    ring = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 7)]
    assert [f.labels[edge(*e)] for e in ring] == [1, 33, 9, 41, 17, 49, 25]
    assert_verified(res)


@pytest.mark.parametrize("n", range(1, 6))
def test_odd_cycle_join_even_null_sweep(n):
    res = label_odd_cycle_join_even_null(n)
    assert res.claimed_chi_la == 4
    assert_verified(res)


def test_cycle_join_null_minus_cycle_edge():
    res = label_cycle_join_null_minus_edge(2, 2, "cycle-edge")
    assert res.claimed_chi_la == 3
    assert res.graph.q == 15
    assert_verified(res)


def test_cycle_join_null_minus_join_edge():
    res = label_cycle_join_null_minus_edge(3, 3, "join-edge")
    # null-side class lands on 4m^2n - 2m^2 - m after the shift
    assert 4 * 27 - 18 - 3 in res.claimed_colors
    assert_verified(res)


def test_cycle_join_null_minus_edge_exceptional_point():
    with pytest.raises(ParameterError, match="m=4, n=3"):
        label_cycle_join_null_minus_edge(4, 3, "join-edge")
    assert_verified(label_cycle_join_null_minus_edge(4, 3, "cycle-edge"))


def test_join_edge_sums_are_the_reflected_labelings_sums():
    # The join-edge scheme derives the reflected labeling's sums from the
    # base sums instead of summing again; on every swept point they must be
    # what summing the reflected labeling gives, and each must drop by its
    # degree when the label-1 join edge is deleted.
    points = [p for p in sweep_points("cycle-join-null-minus-edge") if p["which"] == "join-edge"]
    assert len(points) == 282
    for p in points:
        base = label_cycle_join_null(p["m"], p["n"])
        g, f = base.graph, base.labeling
        derived = complement_sums(g, induced_sums(g, f))
        assert derived == induced_sums(g, complement_labeling(g, f)), p
        res = build_construction("cycle-join-null-minus-edge", p)
        assert res.labeling.sums == {v: derived[v] - g.degree(v) for v in g.vertices}, p


@pytest.mark.parametrize("family, params", [
    ("cycle-join-null-minus-edge", {"m": 3, "n": 4, "which": "cycle-edge"}),
    ("cycle-join-null-minus-edge", {"m": 3, "n": 4, "which": "join-edge"}),
    ("cycle-join-cycle-minus-edge", {"m": 3, "n": 4}),
    ("generic-join-null", {"n": 4}),
    ("generic-join-complete-bipartite", {"m": 2, "n": 4}),
    ("generic-join-cycle", {"m": 5}),
])
def test_builds_run_the_sum_kernel_once(monkeypatch, family, params):
    # The minus-edge schemes read every certificate from one set of sums,
    # and a generic join reads its seed's sums from the verifier.
    calls = []

    def counted(pairs, n):
        calls.append(n)
        return sum_list(pairs, n)

    sum_list = labelings._sum_list
    monkeypatch.setattr(labelings, "_sum_list", counted)
    build_construction(family, params)
    assert len(calls) == 1


def test_cycle_join_cycle_golden():
    res = label_cycle_join_cycle(3, 3)
    vs = res.graph.v_vertices
    assert [res.labeling.sums[v] for v in vs] == [209, 207, 206, 207, 206]
    us = res.graph.u_vertices
    assert {res.labeling.sums[u] for u in us} == {93, 136}
    assert_verified(res)


def test_cycle_join_cycle_smallest():
    res = label_cycle_join_cycle(2, 2)
    # recomputed closed forms; the two-cycle contribution to the first
    # extra vertex is 8mn + 3n - 1, giving 79/78/77 at m = n = 2
    assert {79, 78, 77} <= set(res.claimed_colors)
    assert_verified(res)


def test_cycle_join_cycle_exceptional_point():
    with pytest.raises(ParameterError, match="m=3, n=6"):
        label_cycle_join_cycle(3, 6)


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("n", range(2, 7))
def test_cycle_join_cycle_sweep(m, n):
    if (m, n) == (3, 6):
        return  # the documented collision point, rejected by the generator
    assert_verified(label_cycle_join_cycle(m, n))


def test_cycle_join_cycle_minus_edge():
    res = label_cycle_join_cycle_minus_edge(2, 2)
    assert res.claimed_chi_la == 5
    assert_verified(res)


def test_cycle_join_cycle_minus_edge_rejects_other_sides():
    # Only the even-cycle edge has a claimed value, so the family takes no which.
    for which in ("cycle-edge", "join-edge"):
        with pytest.raises(ParameterError, match="^cycle-join-cycle-minus-edge does not take parameter which$"):
            build_construction("cycle-join-cycle-minus-edge", {"m": 2, "n": 2, "which": which})


def test_cycle_join_cycle_minus_edge_shifted_order():
    res = label_cycle_join_cycle_minus_edge(3, 3)
    sums = res.labeling.sums
    vs = res.graph.v_vertices
    v1, veven, vodd = sums[vs[0]], sums[vs[1]], sums[vs[2]]
    assert v1 > veven > vodd
    assert (v1, veven, vodd) == (201, 199, 198)
    assert_verified(res)


def test_cycle_join_complete():
    res = label_cycle_join_complete(2, 5)
    assert res.claimed_chi_la == 7
    assert_verified(res)
    res = label_cycle_join_complete(3, 5)
    assert 3 * (4 * 9 - 9 + 3) + 3 in res.claimed_colors  # first-side odd class is 93
    assert_verified(res)


def test_cycle_join_complete_parity_and_routes():
    with pytest.raises(ParameterError):
        label_cycle_join_complete(2, 4)
    res = label_cycle_join_complete(2, 3)
    assert res.claimed_chi_la == 5
    assert_verified(res)
    assert_refused_plainly(label_cycle_join_complete, 2, 1)
    with pytest.raises(CitedCaseError):
        build_construction("cycle-join-complete", {"m": 2, "r": 1})


@pytest.mark.parametrize(
    "family,params,cited,twin",
    [
        ("path-join-null", {"m": 1, "N": 3}, 3, None),
        ("path-join-null", {"m": 2, "N": 1}, 4, None),
        ("path-join-complete", {"m": 2, "r": 1}, 4, ("path-join-null", {"m": 2, "N": 1})),
        ("cycle-join-null", {"m": 3, "n": 1}, 3, None),
        ("cycle-join-complete", {"m": 3, "r": 1}, 3, ("cycle-join-null", {"m": 3, "n": 1})),
    ],
    ids=["double-apex", "fan", "fan-via-complete", "wheel", "wheel-via-complete"],
)
def test_cited_routes(family, params, cited, twin):
    # K_1 is O_1: the complete families' r = 1 points are the null join's
    # fan and wheel, refused with the same graph, value and message.
    with pytest.raises(CitedCaseError) as exc:
        build_construction(family, params)
    assert exc.value.cited_chi_la == cited
    if twin:
        with pytest.raises(CitedCaseError) as other:
            build_construction(*twin)
        g, h = exc.value.graph, other.value.graph
        assert (g.edges, g.roles, g.family) == (h.edges, h.roles, h.family)
        assert (str(exc.value), exc.value.cited_chi_la) == (str(other.value), other.value.cited_chi_la)


def test_complete_join_odd_cycle_smallest():
    res = label_complete_join_odd_cycle(1, 2)
    assert res.claimed_chi_la == 5
    assert res.claimed_colors == frozenset({29, 30, 18, 17, 16})
    assert_verified(res)


def test_complete_join_odd_cycle_sum_ordering():
    # first-side sums must interleave: odd positions ascending below even
    res = label_complete_join_odd_cycle(2, 3)
    sums = res.labeling.sums
    us = res.graph.u_vertices
    assert sums[us[0]] < sums[us[2]] < sums[us[1]] < sums[us[3]]
    assert_verified(res)


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("m", range(2, 6))
def test_complete_join_odd_cycle_side_separation(n, m):
    res = label_complete_join_odd_cycle(n, m)
    sums = res.labeling.sums
    assert min(sums[u] for u in res.graph.u_vertices) > max(
        sums[v] for v in res.graph.v_vertices
    )
    assert_verified(res)


def test_p7_o3_table():
    res = label_p7_o3()
    assert res.claimed_colors == frozenset({51, 65, 119})
    assert_verified(res)


def test_antimagic_complete_small():
    # K_r labeled in edge order has r distinct sums from r = 3 on; K_2's
    # single edge gives both ends the same sum, so the complete parts start at K_3
    assert sorted(_in_edge_order(build_family("complete", 3)).sums.values()) == [3, 4, 5]
    for r in (4, 5, 8):
        f = _in_edge_order(build_family("complete", r))
        assert len(set(f.sums.values())) == r
    assert _in_edge_order(build_family("complete", 2)).sums == {1: 1, 2: 1}


def test_in_edge_order_k4_matches_brute_force():
    # every labeling of the 6 edges keeps some adjacent pair equal unless
    # all four sums are distinct; the labels in edge order achieve 4 distinct
    g = build_family("complete", 4)
    f = _in_edge_order(g)
    assert len(set(f.sums.values())) == 4
    found = False
    for perm in itertools.permutations(range(1, 7)):
        labels = dict(zip(g.edges, perm))
        sums = {v: 0 for v in g.vertices}
        for (a, b), lab in labels.items():
            sums[a] += lab
            sums[b] += lab
        if len(set(sums.values())) == 4:
            found = True
            break
    assert found


def test_lexicographic_complete_sums_increase_with_the_vertex():
    # complete-join-odd-cycle renames K_2n's vertices by position alone,
    # which keeps its sums in order only because they increase with the
    # vertex; the budget-400 sweep's largest K_2n is K_24. So K_r's sums
    # are pairwise distinct, as K_3's seed and the K_r parts need.
    for r in range(3, 61):
        sums = list(_in_edge_order(build_family("complete", r)).sums.values())
        assert all(a < b for a, b in zip(sums, sums[1:])), r


def test_wrapped_cycle_labels_at_base_0_give_three_sums():
    # C_{2m-1}: 3m-1 at v_1, 2m-1 at the other odd vertices, 2m at the even ones
    for m in range(2, 16):
        f = EdgeLabeling.from_values(build_family("cycle", 2 * m - 1), _wrapped_cycle_labels(2 * m - 1, 0))
        expected = {v: 3 * m - 1 if v == 1 else 2 * m - 1 if v % 2 == 1 else 2 * m for v in range(1, 2 * m)}
        assert f.sums == expected, m


def _seed(family):
    # The labeled first part a generic family's record binds, and its graph.
    f = next(fam.seed for fam in FAMILIES if fam.name == family)
    return f.graph, f


def test_generic_join_null_seed():
    g, f = _seed("generic-join-null")
    res = label_generic_join_null(g, f, 2)
    assert res.claimed_chi_la == 4
    assert_verified(res)
    res = label_generic_join_null(g, f, 4)
    v_sums = {res.labeling.sums[v] for v in res.graph.v_vertices}
    assert len(v_sums) == 1  # column constant of the rectangle
    assert_verified(res)


@pytest.mark.parametrize("family", GENERIC_FAMILIES)
def test_generic_join_null_rejects_forbidden_sum(family):
    # All three schemes refuse a clash with one message naming the sum.
    if family == "generic-join-null":
        # a vertex with no edges carries sum 0, which is the forbidden value
        # when the part orders are equal
        g = Graph(4, ((1, 2), (2, 3)), ("u1", "u2", "u3", "u4"))
        f = EdgeLabeling(g, {(1, 2): 1, (2, 3): 2})
        with pytest.raises(ParameterError, match="vertex 4 carries the forbidden sum 0"):
            label_generic_join_null(g, f, 4)
        return
    # on the seeds, points the sweep skips
    params, message = {
        "generic-join-complete-bipartite": ({"m": 2, "n": 6}, "vertex 3 carries the forbidden sum 5"),
        "generic-join-cycle": ({"m": 7}, "vertex 1 carries the forbidden sum 3"),
    }[family]
    with pytest.raises(ParameterError, match=message):
        build_construction(family, params)


def test_generic_join_reads_the_sums_on_the_given_graph():
    # The seed's labeling labels exactly g's edges, but its own graph lacks
    # g's isolated fifth vertex: that vertex's sum 0 is a color, and at
    # n = 5 it is the forbidden one.
    seed, f = _seed("generic-join-null")
    g = Graph(5, seed.edges, seed.roles + ("u5",))
    for n in (3, 7):
        res = label_generic_join_null(g, f, n)
        assert res.claimed_chi_la == 5
        assert_verified(res)
    with pytest.raises(ParameterError, match="^vertex 5 carries the forbidden sum 0$"):
        label_generic_join_null(g, f, 5)


def test_generic_join_null_parity():
    g, f = _seed("generic-join-null")
    with pytest.raises(ParameterError):
        label_generic_join_null(g, f, 3)


def test_generic_join_complete_bipartite_seed():
    g, f = _seed("generic-join-complete-bipartite")
    res = label_generic_join_complete_bipartite(g, f, 2, 4)
    assert res.claimed_chi_la == 5  # seed has three colors; two parts add two
    cert = assert_verified(res)
    p, e = 4, 3
    m, n = 2, 4
    x_expected = p * e + p * (p * (m + n) + 1) // 2 + n * e + n * p * (m + n) + n * (m * n + 1) // 2
    xs = res.graph.v_vertices[:m]
    ys = res.graph.v_vertices[m:]
    assert {res.labeling.sums[x] for x in xs} == {x_expected}
    assert len({res.labeling.sums[y] for y in ys}) == 1
    assert res.labeling.sums[ys[0]] != x_expected


def test_generic_join_complete_bipartite_rejects():
    g, f = _seed("generic-join-complete-bipartite")
    with pytest.raises(ParameterError):
        label_generic_join_complete_bipartite(g, f, 2, 2)
    with pytest.raises(ParameterError):
        label_generic_join_complete_bipartite(g, f, 2, 3)


def test_generic_join_cycle_seed():
    g, f = _seed("generic-join-cycle")
    res = label_generic_join_cycle(g, f, 3)
    assert res.claimed_chi_la == 6
    assert_verified(res)
    # the first extra vertex carries the largest of the three new colors
    sums = res.labeling.sums
    v = res.graph.v_vertices
    assert sums[v[0]] == max(sums[x] for x in v)


def test_generic_join_cycle_rejects_even():
    g, f = _seed("generic-join-cycle")
    with pytest.raises(ParameterError):
        label_generic_join_cycle(g, f, 4)


def test_build_construction_dispatch():
    res = build_construction("cycle-join-cycle", {"m": 2, "n": 2})
    assert res.labeling.labels == label_cycle_join_cycle(2, 2).labeling.labels
    with pytest.raises(ParameterError):
        build_construction("no-such-family", {})


def test_sweep_lists_are_pinned_with_their_order():
    # sha256 of the sweep lists before the family registry replaced the
    # per-family loops. The benchmark's point and edge totals and its
    # cli-roundtrip strata depend on this order, not only on the counts.
    expected = {
        40: "011e6a7b456cefc134a1d0d67becd91150d576c732f7f33fcdf986b4385e93f4",
        400: "c3edc1364ce6c9184b2b8035f2248f086d016f6921770fd35a409574bf2e41a6",
    }
    for budget, digest in expected.items():
        text = json.dumps([sweep_points(f, budget) for f in ALL_FAMILIES])
        assert hashlib.sha256(text.encode()).hexdigest() == digest, budget


def test_sweep_labelings_are_pinned():
    # sha256 per family of each point's labeling JSON, sorted claimed colors
    # and claimed count at budget 150 (844 points), taken before the shared
    # closed forms were factored out of the generators. A change to any
    # label or claim fails here, not only one to the parameter lists.
    expected = {
        "path-join-null": "9732b047a281604cfd90a480e0bbddf913855b16b7b63761b78c15bd9b6c5ef1",
        "p7-o3": "9b627ddf694586396e915279a9cbcff06d0ba20cb7ff7dd0611efd676b5e3901",
        "path-join-cycle": "2f5ce57ab161afc80cc99a6127b336925b25d59bc00a33fcc7ee7f6356b72ddf",
        "path-join-complete": "86a6ef1e4c2dc64ad6bec881905708ebd647d6203e2bbc25456d69e93077dc57",
        "cycle-join-null": "99a5f0606a60d7820b3bc107c44d964b4ee18c1e0686876eac08915680f220d0",
        "odd-cycle-join-even-null": "fb98f86579092e5bfd3c1b46ab38f736aa561fb31713131c6be7b30e6ababab2",
        "cycle-join-null-minus-edge": "91b059c138c220f15614d828633f5dbd68a33149befc94b59446f976d61ebbda",
        "cycle-join-cycle": "b9d254b8d981b48aedd1ca12f1ed6bd3ad0ff4d189ef5e450148f978c8d1e3bc",
        "cycle-join-cycle-minus-edge": "82b324f6bd7a2ee6eb054bec34b84c42cf9353d536437ce2565c303efc7a3062",
        "cycle-join-complete": "3c9b349546bc61143999320621f0d76d111f5ab10007eb17cb9747a2113133c4",
        "complete-join-odd-cycle": "a7959bf84eb281b77d69bb97a12867d3569ee1d51bd7f4dc55e48c6b5e7dee3e",
        "generic-join-null": "3cc90b4cc5553147cf00d2fba3951ab4965dc6f7f387486fcc5e3f06663186b2",
        "generic-join-complete-bipartite": "f39d091e6c95240ee7925018f0035d6d64d3209782f9bce0f127ac8810f00f38",
        "generic-join-cycle": "baf4997f02442d7056d1906e93798afed151aeaa0ae6d8a51dbb716b759f5762",
    }
    for family in ALL_FAMILIES:
        rows = []
        for params in sweep_points(family, 150):
            res = build_construction(family, params)
            rows.append([params, res.labeling.to_json(), sorted(res.claimed_colors), res.claimed_chi_la])
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert digest == expected[family], family


@pytest.mark.parametrize("budget", [1, 10, 26, 27, 40, 400])
def test_swept_points_fit_the_budget_and_the_closed_form_q(budget):
    for fam in FAMILIES:
        for params in sweep_points(fam.name, budget):
            q = build_construction(fam.name, params).graph.q
            assert q <= budget, (fam.name, params)
            assert edge_count(fam.name, params) == q, (fam.name, params)


def test_generic_families_are_the_three_seeded_ones():
    assert GENERIC_FAMILIES == (
        "generic-join-null", "generic-join-complete-bipartite", "generic-join-cycle"
    )
    seeds = [_seed(family)[0].family for family in GENERIC_FAMILIES]
    assert seeds == [("cycle", 4), ("path", 4), ("complete", 3)]


def test_build_construction_checks_parameter_names():
    with pytest.raises(ParameterError, match="p7-o3 does not take parameter m"):
        build_construction("p7-o3", {"m": 3})
    with pytest.raises(ParameterError, match="cycle-join-null does not take parameter which"):
        build_construction("cycle-join-null", {"m": 2, "n": 2, "which": "cycle-edge"})
    default = build_construction("cycle-join-null-minus-edge", {"m": 2, "n": 2})
    explicit = build_construction("cycle-join-null-minus-edge", {"m": 2, "n": 2, "which": "cycle-edge"})
    assert default.labeling.labels == explicit.labeling.labels


def test_collision_points_are_refused_and_skipped():
    m, n = CYCLE_CYCLE_COLLISION
    for family in ("cycle-join-cycle", "cycle-join-cycle-minus-edge"):
        with pytest.raises(ParameterError, match="merges two color classes"):
            build_construction(family, {"m": m, "n": n})
        assert {"m": m, "n": n} not in sweep_points(family, 400)
    m, n = JOIN_EDGE_COLLISION
    params = {"m": m, "n": n, "which": "join-edge"}
    with pytest.raises(ParameterError, match="merges two color classes"):
        build_construction("cycle-join-null-minus-edge", params)
    swept = sweep_points("cycle-join-null-minus-edge", 400)
    assert params not in swept and dict(params, which="cycle-edge") in swept


@pytest.mark.parametrize("family", GENERIC_FAMILIES)
def test_generic_exclusions_match_the_generators(family):
    # Every point the sweep skips inside the budget is one the generator
    # refuses, and every point it keeps builds.
    fam = next(f for f in FAMILIES if f.name == family)
    kept = sweep_points(family, 400)
    for values in itertools.product(range(2, 24), repeat=len(fam.params)):
        params = dict(zip(fam.params, values))
        if edge_count(family, params) > 400:
            continue
        if params in kept:
            build_construction(family, params)
        else:
            with pytest.raises(ParameterError):
                build_construction(family, params)


def test_families_md_lists_the_registry():
    # Each table row: the family, then the flags named in its Parameters
    # cell (an escaped pipe inside a cell is not a cell border).
    text = (Path(__file__).resolve().parents[1] / "FAMILIES.md").read_text()
    rows = []
    for line in text.splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if cells and cells[0].startswith("`"):
            rows.append((cells[0].strip("`"), re.findall(r"--(\w+)", cells[2])))
    assert rows == [(fam.name, list(fam.params)) for fam in FAMILIES]


def test_assemble_rejects_labels_off_the_edge_set():
    from lajoin.constructions import _assemble

    # join(P_2, P_2) has the edges (1,2), (3,4), (1,3), (1,4), (2,3), (2,4)
    first = second = build_family("path", 2)
    grid = [[3, 4], [5, 6]]
    g, f = _assemble(first, second, [1], grid, [2])
    assert g == join(first, second)
    assert f.graph is g and f.values == (1, 2, 3, 4, 5, 6)
    for u_labels, join_grid, v_labels in (
        ([1, 7], grid, [2]),  # first's labels one too long
        ([], grid, [2]),  # one too short
        ([1], grid, [2, 7]),  # second's labels one too long
        ([1], grid, []),  # one too short
        ([1], [[3, 4, 5], [6]], [2]),  # a ragged grid with the right cell count
        ([1], [[3, None], [5, 6]], [2]),  # a cell left unset
    ):
        with pytest.raises(RuntimeError, match="^the assembled labels do not cover exactly the graph's edges$"):
            _assemble(first, second, u_labels, join_grid, v_labels)


# -- each part's own labels, now a sequence in the part's edge order,
# against the per-edge tables they replaced


def _reference_path_table(m):
    return {(i, i + 1): (i // 2 if i % 2 == 0 else 2 * m - (i + 1) // 2) for i in range(1, 2 * m)}


def _reference_even_cycle_table(m):
    lab = {(i, i + 1): m - (i - 1) // 2 if i % 2 == 1 else m + 1 + i // 2 for i in range(1, 2 * m)}
    lab[(1, 2 * m)] = m + 1
    return lab


def _reference_wrapped_cycle_table(count, base):
    lab = {}
    for j in range(1, count + 1):
        a, b = (j, j + 1) if j < count else (1, count)
        lab[(a, b)] = base + j // 2 if j % 2 == 0 else base + count - (j - 1) // 2
    return lab


def _reference_odd_cycle_column(n):
    cyc = {}
    for i in range(1, n + 2):
        cyc[edge(2 * i - 1, 2 * i if i <= n else 1)] = 1 + 2 * (n + 1) * (i - 1)
    for i in range(1, n + 1):
        cyc[edge(2 * i, 2 * i + 1)] = 1 + 2 * (n + 1) * (n + i)
    return cyc


def _reference_complete_table(r):
    # K_r labeled lexicographically
    return {e: k for k, e in enumerate(itertools.combinations(range(1, r + 1), 2), 1)}


def _reference_bipartite_table(g, m, n):
    # K_{m,n} on top of g's join with it: edge (j, m+k) takes the (m, n)
    # rectangle's cell (j, k) above the labels of g and the join
    small = magic_rectangle(m, n).entries
    offset = g.q + g.n * (m + n)
    return {(j, m + k): offset + small[j - 1][k - 1] for j in range(1, m + 1) for k in range(1, n + 1)}


def _own_tables(res, first, second):
    # Each part's own labels in a join labeling, keyed by the part's edges.
    values = res.labeling.values
    return (dict(zip(first.edges, values[:first.q])),
            dict(zip(second.edges, values[first.q:first.q + second.q])))


def test_own_part_sequences_match_the_per_edge_tables():
    from lajoin.constructions import _even_cycle_labels, _path_labels

    for m in range(1, 16):
        path = build_family("path", 2 * m)
        assert dict(zip(path.edges, _path_labels(m))) == _reference_path_table(m), m
        if m >= 2:
            cycle = build_family("cycle", 2 * m)
            assert dict(zip(cycle.edges, _even_cycle_labels(m))) == _reference_even_cycle_table(m), m
    for count in range(3, 30, 2):
        cycle = build_family("cycle", count)
        for base in (0, 7, 100):
            table = dict(zip(cycle.edges, _wrapped_cycle_labels(count, base)))
            assert table == _reference_wrapped_cycle_table(count, base), (count, base)
    for n in range(1, 12):
        cycle = build_family("cycle", 2 * n + 1)
        first, _ = _own_tables(label_odd_cycle_join_even_null(n), cycle, build_family("null", 2 * n))
        assert first == _reference_odd_cycle_column(n), n
    assert _own_tables(label_p7_o3(), build_family("path", 7), build_family("null", 3))[0] == {
        (1, 2): 4, (2, 3): 1, (3, 4): 5, (4, 5): 2, (5, 6): 6, (6, 7): 3,
    }
    for n in range(2, 12):
        res = label_path_join_cycle(1, n)
        assert _own_tables(res, build_family("path", 2), build_family("cycle", 2 * n - 1))[0] == {(1, 2): 4 * n - 1}
    # the shifted K_r parts
    for m in range(2, 6):
        for r in (2, *range(4, 10)):
            q0 = 2 * m - 1 + 2 * m * r
            parts = build_family("path", 2 * m), build_family("complete", r)
            table = {e: lab + q0 for e, lab in _reference_complete_table(r).items()}
            assert _own_tables(label_path_join_complete(m, r), *parts)[1] == table, (m, r)
        for r in range(5, 12, 2):
            shift = 4 * m * (r + 1) // 2
            parts = build_family("cycle", 2 * m), build_family("complete", r)
            table = {e: lab + shift for e, lab in _reference_complete_table(r).items()}
            assert _own_tables(label_cycle_join_complete(m, r), *parts)[1] == table, (m, r)
    # the K_{m,n} rectangle, keyed (j, m+k) as the rectangle's cell (j, k)
    g, f = _seed("generic-join-complete-bipartite")
    for m, n in itertools.product(range(2, 9), repeat=2):
        if m == n or m % 2 != n % 2:
            continue
        try:
            res = label_generic_join_complete_bipartite(g, f, m, n)
        except ParameterError:
            continue  # a first-part sum lands on a new color
        table = _reference_bipartite_table(g, m, n)
        assert _own_tables(res, g, build_family("complete-bipartite", m, n))[1] == table, (m, n)


# -- outputs the sweep does not reach, against the edge-keyed dicts
# they were built from before each part's labels became a sequence


def _reference_generic_join(g, f, second, v_table):
    rect = magic_rectangle(g.n, second.n).entries
    labels = dict(f.labels)
    labels.update({(a + g.n, b + g.n): lab for (a, b), lab in v_table.items()})
    labels.update({(u, g.n + v): g.q + rect[u - 1][v - 1]
                   for u in range(1, g.n + 1) for v in range(1, second.n + 1)})
    joined = join(g, second)
    return joined, EdgeLabeling(joined, labels)


def _supplied_first_parts():
    # Labeled graphs a caller might supply: no generic family's seed, and
    # one with its edges out of sorted order.
    for r in range(3, 8):
        yield _in_edge_order(build_family("complete", r))
    for length in range(5, 12, 2):
        yield EdgeLabeling.from_values(build_family("cycle", length), _wrapped_cycle_labels(length, 0))
    shuffled = Graph(4, ((3, 4), (1, 2), (2, 3), (1, 4), (1, 3)), ("u1", "u2", "u3", "u4"))
    yield EdgeLabeling.from_values(shuffled, [5, 1, 4, 2, 3])


def test_outputs_off_the_sweep_match_the_dict_built_labelings():
    for r in range(3, 12):
        complete = build_family("complete", r)
        assert _in_edge_order(complete).values == EdgeLabeling(complete, _reference_complete_table(r)).values, r
    for r in range(1, 12):
        res = label_path_join_complete(1, r)
        g = join(build_family("path", 2), build_family("complete", r))
        assert res.graph == g
        assert res.labeling.values == EdgeLabeling(g, _reference_complete_table(r + 2)).values, r
    built = collections.Counter()
    for f in _supplied_first_parts():
        g = f.graph
        assert verify_local_antimagic(g, f).ok
        cases = []
        for n in range(2, 8):
            cases.append((label_generic_join_null, (n,), build_family("null", n), {}))
        for m, n in itertools.product(range(2, 7), repeat=2):
            if m == n or m % 2 != n % 2:
                continue
            cases.append((label_generic_join_complete_bipartite, (m, n), build_family("complete-bipartite", m, n),
                          _reference_bipartite_table(g, m, n)))
        for m in range(3, 12, 2):
            cases.append((label_generic_join_cycle, (m,), build_family("cycle", m),
                          _reference_wrapped_cycle_table(m, g.q + g.n * m)))
        for scheme, args, second, v_table in cases:
            try:
                res = scheme(g, f, *args)
            except ParameterError:
                continue  # outside the scheme's domain, or a first-part sum clashes
            joined, ref = _reference_generic_join(g, f, second, v_table)
            assert res.graph == joined and res.labeling.values == ref.values, (g, scheme.__name__, args)
            built[scheme.__name__] += 1
    assert built == {"label_generic_join_null": 29, "label_generic_join_complete_bipartite": 24,
                     "label_generic_join_cycle": 34}


# -- the join-label grids against the per-cell tables they replaced, keyed
# (path index, null index) as in the paper


def _reference_even_null_join(m, n):
    J = {(2 * m - 1, 1): 2 * m, (2 * m, 1): 4 * m * n + 2 * m - 1, (2 * m - 1, 2): 3 * m, (2 * m, 3): 4 * m}
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


def _reference_odd_null_join(m, n):
    J = {(2 * m - 1, 1): 2 * m, (2 * m, 1): 4 * m * n - 1, (2 * m - 1, 2): 3 * m}
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


def _reference_null2_join(m):
    J = {}
    for i in range(1, 2 * m + 1):
        if i % 2 == 1:
            J[(i, 1)] = 2 * m + (i - 1) // 2
            J[(i, 2)] = 5 * m - (i + 1) // 2
        else:
            J[(i, 1)] = 6 * m - 1 if i == 2 * m else 6 * m - (i + 2) // 2
            J[(i, 2)] = 3 * m + (i - 2) // 2
    return J


def test_null_join_grids_match_the_per_cell_tables():
    # Each cell of a grid labels one edge, so a sweep point with at most 400
    # edges asks only for grids of at most 400 cells: P_2m v O_2 has 4m,
    # P_2m v O_2n 4mn and P_2m v O_{2n-1} 2m(2n - 1). Every such grid is
    # checked, and every grid with m and n in 2..15, the odd one also shifted
    # by 1 as every cycle join takes it.
    from lajoin.constructions import _even_null_join, _null2_join, _odd_null_join

    def cells(grid):
        return {(i, j): x for i, row in enumerate(grid, 1) for j, x in enumerate(row, 1)}

    checked = collections.Counter()
    for m in range(2, 101):
        assert cells(_null2_join(m)) == _reference_null2_join(m), m
        for n in range(2, 101):
            square = m <= 15 and n <= 15
            if square or 4 * m * n <= 400:
                assert cells(_even_null_join(m, n)) == _reference_even_null_join(m, n), (m, n)
                checked["even"] += 1
            if square or 2 * m * (2 * n - 1) <= 400:
                odd = _reference_odd_null_join(m, n)
                assert cells(_odd_null_join(m, n)) == odd, (m, n)
                assert cells(_odd_null_join(m, n, 1)) == {key: x + 1 for key, x in odd.items()}, (m, n)
                checked["odd"] += 1
    assert checked == {"even": 334, "odd": 365}


def _graph_data(g: Graph) -> tuple:
    return g.n, g.edges, g.roles, g.family


def test_edge_count_is_the_built_graphs_edge_count():
    # gen, matrix and solve refuse an oversized request by edge_count
    # before building, so it must be q at every point that builds, cited
    # points and reroutes included, and at every refused point whose graph
    # exists, which solve takes from family_graph. That graph is the one
    # built or cited, in edge order, roles and family descriptor too.
    counts = collections.Counter()
    for fam in FAMILIES:
        keys = [key for key in fam.params if key != "which"]
        for values in itertools.product(range(1, 7), repeat=len(keys)):
            for which in fam.which_values or (None,):
                params = dict(zip(keys, values), **({"which": which} if which else {}))
                try:
                    graph = family_graph(fam.name, params)
                except ParameterError:
                    graph = None
                try:
                    built, kind = build_construction(fam.name, params).graph, "built"
                except CitedCaseError as exc:
                    built, kind = exc.graph, "cited"
                except ParameterError:
                    built, kind = graph, "refused"
                if built is None:
                    continue
                assert graph is not None and _graph_data(graph) == _graph_data(built), (fam.name, params)
                assert edge_count(fam.name, params) == graph.q, (fam.name, params)
                counts[kind] += 1
    assert counts == {"built": 266, "cited": 26, "refused": 63}
    # No sweep point is cited: the cited points lie outside the axes.
    for fam in FAMILIES:
        for params in sweep_points(fam.name, 400) if fam.cited else ():
            assert fam.cited(*_args(fam, params)) is None, (fam.name, params)
