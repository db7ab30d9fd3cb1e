import functools
import hashlib
import itertools
import json
import random
import re
import types
from pathlib import Path

import pytest

from conftest import SLOW_CITED, random_graph, slow_cited_graph, slow_cited_nodes
from lajoin.constructions import CitedCaseError, build_construction, family_graph, sweep_points
from lajoin.graphs import (
    Graph,
    ParameterError,
    build_family,
    chromatic_lower_bound,
    chromatic_number_exact,
    delete_edge,
    join,
)
import lajoin.solver
from lajoin.labelings import verify_local_antimagic
from lajoin.solver import SearchConfig, confirm_theorem, exact_chi_la


def test_triangle():
    report = exact_chi_la(build_family("cycle", 3))
    assert report.chi_la == 3 and report.exact


def test_short_path_needs_three():
    # both labelings of the 2-edge path give three distinct sums
    report = exact_chi_la(build_family("path", 3))
    assert report.chi_la == 3 and report.exact


def test_two_apex_null_join():
    g = join(build_family("path", 2), build_family("null", 2))
    report = exact_chi_la(g)
    assert report.chi_la == 3


def test_witness_reverifies():
    g = join(build_family("path", 4), build_family("null", 1))
    report = exact_chi_la(g)
    assert report.chi_la == 4 and report.exact
    cert = verify_local_antimagic(g, report.witness)
    assert cert.ok and cert.color_count == 4


def test_rejects_large_and_tiny():
    g = join(build_family("cycle", 6), build_family("null", 5))
    with pytest.raises(ParameterError):
        exact_chi_la(g)
    with pytest.raises(ParameterError):
        exact_chi_la(build_family("path", 2))


def test_single_edge_graph_has_no_labeling():
    g = Graph(3, ((1, 2),), ("u1", "u2", "u3"))
    report = exact_chi_la(g)
    assert report.chi_la is None


def brute_chi_la(g):
    """Minimum color count over all q! bijections; None if none is proper."""
    best = None
    for perm in itertools.permutations(range(1, g.q + 1)):
        sums = [0] * (g.n + 1)
        for (a, b), lab in zip(g.edges, perm):
            sums[a] += lab
            sums[b] += lab
        if any(sums[a] == sums[b] for a, b in g.edges):
            continue
        count = len(set(sums[1:]))
        if best is None or count < best:
            best = count
    return best


def oracle_corpus():
    rng = random.Random(20261017)
    graphs = []
    while len(graphs) < 40:
        g = random_graph(rng, 3, 7)
        if g.q <= 7:
            graphs.append(g)
    # twin-heavy joins: the null side is one class of twins
    graphs += [join(build_family("path", 2), build_family("null", n)) for n in (1, 2, 3)]
    graphs.append(join(build_family("cycle", 3), build_family("null", 1)))
    # the fan P_4 v O_1: chi_la 4, one above its chromatic bound, so every
    # branch one color short of the best is searched to its end or cut
    graphs.append(join(build_family("path", 4), build_family("null", 1)))
    # two twin classes, each holding the other's smallest common neighbor
    graphs.append(build_family("complete-bipartite", 2, 3))
    # regular graphs, where the label reflection is oriented, and a path
    graphs += [build_family("cycle", 4), build_family("cycle", 5), build_family("complete", 4)]
    graphs.append(build_family("path", 5))
    # isolated vertices, final at sum 0 before any edge is labeled
    graphs.append(Graph(4, ((1, 2), (1, 3), (2, 3)), ("u1", "u2", "u3", "u4")))
    graphs.append(Graph(4, ((1, 2), (2, 3)), ("u1", "u2", "u3", "u4")))
    # chi_la 3 at the chromatic bound, found only after a witness with more
    # colors, so the reach prune acts while the optimum is still ahead; a
    # reach test that also blocks the sum an open neighbor passes through
    # misses it (found among seeded random 6-vertex, 7-edge graphs)
    for edges in (
        ((1, 2), (1, 3), (1, 4), (2, 4), (2, 6), (4, 5), (5, 6)),
        ((1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (3, 6), (4, 5)),
        ((1, 2), (1, 4), (2, 3), (2, 5), (3, 4), (3, 5), (5, 6)),
        ((1, 2), (1, 5), (2, 3), (2, 4), (3, 4), (3, 5), (4, 6)),
    ):
        graphs.append(Graph(6, edges, tuple(f"u{i}" for i in range(1, 7))))
    return graphs + far_first_witness_corpus() + above_bound_corpus()


def far_first_witness_corpus():
    """Four graphs, q <= 7, chi_la 3, whose first witness has two or three
    colors more: the search then runs two and three colors short of its
    best while the optimum is still ahead, where the reach prune counts
    the new sums both endpoints need. A prune that cuts at slack 2 when one
    endpoint needs a new sum, or at slack 3 when either does, misses the
    optimum on each (found among random_graph draws from random.Random(7))."""
    graphs = []
    for n, edges in (
        (7, ((1, 2), (1, 5), (2, 3), (2, 4), (3, 6), (4, 5), (5, 7))),
        (6, ((1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (3, 4), (5, 6))),
        (6, ((1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (2, 6), (3, 5))),
        (5, ((1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5))),
    ):
        graphs.append(Graph(n, edges, tuple(f"u{i}" for i in range(1, n + 1))))
    return graphs


def above_bound_corpus():
    """24 distinct seeded random graphs, q <= 7, whose optimum lies above
    chromatic_lower_bound: there the search runs one color short of its
    best, where the reach prune acts."""
    rng = random.Random(20261018)
    graphs = {}
    while len(graphs) < 24:
        g = random_graph(rng, 3, 7)
        if g.q <= 7 and g.edges not in graphs:
            chi_la = brute_chi_la(g)
            if chi_la is not None and chi_la > chromatic_lower_bound(g):
                graphs[g.edges] = g
    return list(graphs.values())


def test_above_bound_corpus_is_what_it_says():
    graphs = above_bound_corpus()
    assert len(graphs) == 24 and all(g.q <= 7 for g in graphs)
    assert sum(g.q >= g.n for g in graphs) >= 5
    assert all(brute_chi_la(g) > chromatic_lower_bound(g) for g in graphs)


def test_far_first_witness_corpus_is_what_it_says():
    for g in far_first_witness_corpus():
        # a target of n colors stops the search at its first witness
        first = exact_chi_la(g, SearchConfig(target_colors=g.n)).chi_la
        assert g.q <= 7 and brute_chi_la(g) == 3 and first >= 5, g.edges


@functools.cache
def oracle_values():
    """(graph, brute-force chi_la) over the oracle corpus, computed once."""
    return tuple((g, brute_chi_la(g)) for g in oracle_corpus())


def test_brute_force_oracle_all_configs():
    for g, expected in oracle_values():
        report = exact_chi_la(g)
        assert report.exact and report.chi_la == expected, g.edges
        if expected is not None:
            assert verify_local_antimagic(g, report.witness).color_count == expected


# Known-unsound edits to src/lajoin/solver.py, each (name, exact text, its
# replacement). The text must occur exactly once, so a refactor that moves
# an anchor fails here instead of letting its mutant pass unchecked.
SOLVER_MUTANTS = [
    # cut at slack 3 unless both endpoints of the edge just labeled can
    # still end on a finalized sum; one stuck endpoint needs only one new sum
    ("slack-3 cut on one stuck endpoint",
     "if (slack > 2 or slack == 2 and (can_finish(a) or can_finish(b))",
     "if (slack > 3 or slack == 3 and can_finish(a) and can_finish(b)"
     " or slack == 2 and (can_finish(a) or can_finish(b))"),
    # at slack 2 one new sum is still allowed, so one endpoint may be stuck
    ("slack-2 cut unless both endpoints finish",
     "slack == 2 and (can_finish(a) or can_finish(b))",
     "slack == 2 and (can_finish(a) and can_finish(b))"),
    # an open neighbour's current sum is not final and blocks nothing
    ("can_finish blocks on every neighbour's sum",
     "if sums[u] == s and not remaining[u]:",
     "if sums[u] == s:"),
    # the reflection f <-> q+1-f keeps the colour count only on regular
    # graphs, and with the twin rules it can exclude a whole orbit
    ("reflection rule on non-regular graphs",
     "if regular and (lab == q and not used[1] or lab == 1 and used[q]):",
     "if lab == q and not used[1] or lab == 1 and used[q]:"),
]


def load_solver(edit=None):
    """A throwaway copy of lajoin.solver, with ``edit`` (text, replacement) made."""
    path = Path(lajoin.solver.__file__)
    source = path.read_text(encoding="utf-8")
    if edit is not None:
        old, new = edit
        assert source.count(old) == 1, f"mutant anchor not found exactly once: {old!r}"
        source = source.replace(old, new)
    module = types.ModuleType("lajoin._solver_mutant")
    module.__package__ = "lajoin"
    exec(compile(source, str(path), "exec"), module.__dict__)
    return module


def wrong_answers(solver):
    return [g.edges for g, expected in oracle_values() if solver.exact_chi_la(g).chi_la != expected]


def test_unmutated_solver_copy_passes_the_oracle():
    # the loader itself changes nothing
    assert wrong_answers(load_solver()) == []


@pytest.mark.parametrize("name,old,new", SOLVER_MUTANTS, ids=[m[0] for m in SOLVER_MUTANTS])
def test_oracle_catches_unsound_solver_mutant(name, old, new):
    assert wrong_answers(load_solver((old, new))), name


def test_edge_order_invariance():
    g = build_family("cycle", 5)
    g2 = Graph(g.n, tuple(reversed(g.edges)), g.roles, g.family)
    assert exact_chi_la(g).chi_la == exact_chi_la(g2).chi_la


def test_two_color_certificate_lower_bounds_solver():
    # Two colours on a bipartite graph with parts X > Y need colours x < y
    # with xX = yY = q(q+1)/2. Each case fails that arithmetic (equal parts,
    # or a part size not dividing the label total), so the exhaustive
    # optimum must be at least three.
    cases = [
        ("path", (3,), (2, 1)),
        ("path", (4,), (2, 2)),
        ("complete-bipartite", (2, 3), (3, 2)),
        ("complete-bipartite", (1, 4), (4, 1)),
    ]
    for kind, params, (x_count, y_count) in cases:
        g = build_family(kind, *params)
        half = g.q * (g.q + 1) // 2
        assert x_count == y_count or half % x_count or half % y_count
        assert exact_chi_la(g).chi_la >= 3


def test_optimum_at_least_chromatic():
    graphs = [
        build_family("path", 4),
        build_family("path", 6),
        build_family("cycle", 4),
        build_family("cycle", 6),
        build_family("complete", 4),
        build_family("complete-bipartite", 2, 3),
        join(build_family("path", 2), build_family("null", 3)),
        delete_edge(build_family("complete", 4), (1, 2)),
    ]
    for g in graphs:
        assert g.q <= 8
        report = exact_chi_la(g)
        assert report.chi_la >= chromatic_number_exact(g)


def test_timeout_reports_inexact():
    # the wheel's first witness at its chromatic bound lies past the first
    # deadline check, so a tiny budget stops the search short of any proof
    assert slow_cited_nodes() > 4096
    g = slow_cited_graph()
    cfg = SearchConfig(time_budget=1e-6)
    report = exact_chi_la(g, cfg)
    assert not report.exact
    if report.witness is not None:
        assert verify_local_antimagic(g, report.witness).ok


def test_target_stops_early():
    g = join(build_family("path", 4), build_family("null", 1))
    full = exact_chi_la(g)
    quick = exact_chi_la(g, SearchConfig(target_colors=5))
    assert quick.chi_la <= 5
    assert quick.nodes_explored <= full.nodes_explored
    assert not quick.exact


def test_search_config_validation():
    with pytest.raises(ParameterError):
        SearchConfig(max_edges=0)
    with pytest.raises(ParameterError):
        SearchConfig(time_budget=0)
    for target in (0, -1):
        with pytest.raises(ParameterError):
            SearchConfig(target_colors=target)


@pytest.mark.parametrize("field,value", [
    ("target_colors", 2.5),
    ("target_colors", "3"),
    ("target_colors", True),
    ("max_edges", True),
    ("max_edges", "12"),
    ("max_edges", 12.0),
    ("time_budget", True),
    ("time_budget", "1"),
    ("time_budget", None),
])
def test_search_config_refuses_a_wrong_type(field, value):
    with pytest.raises(ParameterError, match=re.escape(f"got {value!r}") + "$"):
        SearchConfig(**{field: value})


def test_search_config_takes_an_int_budget():
    assert SearchConfig(time_budget=5).time_budget == 5


def test_confirm_cited_fan():
    verdict = confirm_theorem("path-join-null", {"m": 2, "N": 1})
    assert verdict.verdict == "matched"
    assert verdict.claimed_chi_la == 4 and verdict.solver_chi_la == 4


def test_confirm_via_lower_bound():
    verdict = confirm_theorem("cycle-join-null", {"m": 3, "n": 3})
    assert verdict.verdict == "matched"
    assert verdict.chi_lower_bound == 3


def test_confirm_by_exact_search():
    verdict = confirm_theorem("odd-cycle-join-even-null", {"n": 1})
    assert verdict.verdict == "matched" and verdict.solver_chi_la == 4


def test_confirm_upper_bound_only():
    # the generic null join achieves 4 colors on this seed while the true
    # optimum is 3, so the verdict is an upper bound, not a mismatch
    verdict = confirm_theorem("generic-join-null", {"n": 2})
    assert verdict.verdict == "upper-bound-only"
    assert verdict.measured_colors == 4 and verdict.solver_chi_la == 3


def test_confirm_generic_optimum_above_the_claim_is_a_mismatch(monkeypatch):
    # A verified labeling with the claimed 4 colors exists, so an exact
    # optimum of 5 is a solver fault, not an upper bound.
    report = lajoin.solver.SolveReport(5, True, None, 0, 0.0)
    monkeypatch.setattr(lajoin.solver, "exact_chi_la", lambda g, cfg: report)
    verdict = confirm_theorem("generic-join-null", {"n": 2})
    assert verdict.verdict == "mismatch"
    assert verdict.detail == "exact search found a different optimum"
    assert (verdict.claimed_chi_la, verdict.measured_colors, verdict.solver_chi_la) == (4, 4, 5)


def test_report_json_shape():
    report = exact_chi_la(build_family("cycle", 3))
    data = report.to_json()
    assert data["schema"] == "v1" and data["chi_la"] == 3
    assert data["witness"]["labels"]


def test_confirm_cited_timeout_is_inconclusive():
    # the 12-edge wheel needs far more than the first deadline check's nodes
    assert slow_cited_nodes() > 4096
    verdict = confirm_theorem(*SLOW_CITED, SearchConfig(time_budget=1e-6))
    assert verdict.verdict == "inconclusive"
    assert verdict.claimed_chi_la == 3
    # a best-so-far count is only an upper bound, so no solver value
    assert verdict.solver_chi_la is None
    assert verdict.measured_colors is None and verdict.chi_lower_bound is None


@pytest.mark.parametrize("family", ["cycle-join-null-minus-edge", "cycle-join-cycle-minus-edge"])
def test_minus_edge_sweep_points_meet_the_chromatic_bound(family):
    # Every point has q >= 15, past the solver's 12 edges, so the verdict
    # rests on the chromatic bound alone. On more than 16 vertices only the
    # co-component sum gives one for a graph with a deleted edge.
    for params in sweep_points(family, 150):
        verdict = confirm_theorem(family, params)
        assert verdict.verdict == "matched", params
        assert verdict.chi_lower_bound == verdict.claimed_chi_la, params


def test_confirm_reports_a_point_the_family_does_not_cover():
    verdict = confirm_theorem("cycle-join-complete", {"m": 1, "r": 3})
    assert verdict.verdict == "out-of-range"
    assert verdict.detail == "need m >= 2 and r >= 1"
    assert (verdict.claimed_chi_la, verdict.measured_colors, verdict.chi_lower_bound,
            verdict.solver_chi_la) == (None, None, None, None)
    # next to a cited point, outside the family's domain: the generator's reason
    for family, params, detail in [
        ("path-join-null", {"m": 1, "N": 0}, "need m >= 1 and a null part of order >= 1"),
        ("path-join-complete", {"m": 0, "r": 1}, "need m >= 1 and r >= 1"),
        ("cycle-join-null", {"m": 2, "n": 0}, "need n >= 1"),
    ]:
        verdict = confirm_theorem(family, params)
        assert (verdict.verdict, verdict.detail) == ("out-of-range", detail), family


@pytest.mark.parametrize("family,params", [
    ("p7-o3", {"m": 2}),
    ("path-join-null", {"m": 2}),
    ("cycle-join-null", {"m": 2, "n": 2, "which": "join-edge"}),
])
def test_confirm_raises_on_parameters_the_family_does_not_name(family, params):
    # a usage error, not an out-of-range row
    with pytest.raises(ParameterError):
        confirm_theorem(family, params)


def test_confirm_cited_point_past_max_edges_is_upper_bound_only():
    # P_2 v O_6 has 13 edges, one past the default cutoff
    verdict = confirm_theorem("path-join-null", {"m": 1, "N": 6})
    assert verdict.verdict == "upper-bound-only"
    assert verdict.claimed_chi_la == 3
    assert (verdict.measured_colors, verdict.chi_lower_bound, verdict.solver_chi_la) == (None, None, None)
    assert verdict.detail == "cited result; graph too large for the exact solver"


def test_confirm_wrong_cited_value_is_a_mismatch(monkeypatch):
    import lajoin.solver as solver

    def cite_two(family, params):
        g = join(build_family("path", 2), build_family("null", 2))
        raise CitedCaseError("cited with a wrong value", g, 2)

    monkeypatch.setattr(solver, "build_construction", cite_two)
    verdict = confirm_theorem("path-join-null", {"m": 1, "N": 2})
    assert verdict.verdict == "mismatch"
    assert verdict.claimed_chi_la == 2 and verdict.solver_chi_la == 3
    assert verdict.measured_colors is None and verdict.chi_lower_bound is None
    assert verdict.detail == "exact search disagrees with the cited value"


@pytest.mark.parametrize("claim_shift, solver_chi_la, detail", [
    (0, 3, "exact search found a different optimum"),
    (1, None, "construction failed verification against its claim"),
])
def test_confirm_construction_mismatches(monkeypatch, claim_shift, solver_chi_la, detail):
    # The generic null join on C_4 achieves 4 colors where 3 are optimal;
    # passed off as a non-generic family, that smaller optimum contradicts it.
    import lajoin.solver as solver

    res = build_construction("generic-join-null", {"n": 2})
    res = res._replace(claimed_chi_la=res.claimed_chi_la + claim_shift)
    monkeypatch.setattr(solver, "build_construction", lambda family, params: res)
    verdict = confirm_theorem("cycle-join-null", {"m": 2, "n": 2})
    assert verdict.verdict == "mismatch" and verdict.detail == detail
    assert verdict.claimed_chi_la == 4 + claim_shift and verdict.measured_colors == 4
    assert verdict.chi_lower_bound is None and verdict.solver_chi_la == solver_chi_la


def test_verdict_json_is_the_fields_plus_schema():
    verdict = confirm_theorem("cycle-join-null", {"m": 3, "n": 3})
    data = verdict.to_json()
    assert data.pop("schema") == "v1"
    assert data == {name: getattr(verdict, name) for name in verdict._fields}


# Each desk instance's search, and two larger ones, pinned: (chi_la,
# nodes_explored, sha256 of the witness JSON). Any change to the edge
# order, the symmetry rules, the label order or a prune shows here.
DESK_SEARCHES = [
    ("path-join-null", {"m": 2, "N": 1}, 4, 3084,
     "cf6efb55e47fd81bb3fd647433d642b9dacefbf5b5082f15a8135e2e631a08e8"),
    ("path-join-null", {"m": 3, "N": 1}, 3, 2760,
     "a19908af326a2bd20c6b6ae3d2ac799755787b024c094fd73768ffbac94c7cbc"),
    ("path-join-null", {"m": 1, "N": 2}, 3, 27,
     "8839c650bfcd06a31985139d3f84e9a9159ad6dc4d37be05268ad24b15f077a0"),
    ("path-join-null", {"m": 1, "N": 4}, 3, 1922,
     "c3f47c1c9ab47e7f2b43d6d9ed7876d1189c0d1bd97d4164335c0cfb777adab9"),
    ("path-join-null", {"m": 2, "N": 2}, 3, 2184,
     "093a8d17382d1bef6c31746192b1e636361efb5f59b147511736e0e51c69b8d7"),
    ("path-join-cycle", {"m": 1, "n": 2}, 5, 11,
     "e2996c32e33fa019472f4e9181b97db5e74597baa8d942bf1697858c158bcf52"),
    ("path-join-complete", {"m": 1, "r": 3}, 5, 11,
     "eedab1bb338d67fe3d125b9b4f339a4eb57e0d603284112c3d362e864362e273"),
    ("cycle-join-null", {"m": 2, "n": 1}, 3, 3011,
     "d8c944cdf17d9ef553d43deaeee4496d5b3c35639ed0f3b094d0d5404d2c2a65"),
    ("odd-cycle-join-even-null", {"n": 1}, 4, 6989,
     "72132181ba22842efd32df16254289c9b20354865372b7d7503d1cc92baacfd0"),
    ("complete-join-odd-cycle", {"n": 1, "m": 2}, 5, 11,
     "8abfa123a89b7dcf6cc04d5f086c386fc1b768fe7cbd757bb692f32a38be6e20"),
    ("C3 v O2 minus", (1, 4), 4, 12,
     "f12b33c129334f8e2b32764d510b6226a1f93c7c835da547071dc38bdeb52b18"),
    ("C3 v O2 minus", (1, 2), 3, 567,
     "b07bfe56e8edf4a0ce949c73829c86f22d773794ec3727359e2cefe2886cbb3d"),
    # C_4 v O_2 (q 12) and C_5 v O_2 (q 15, past the default max_edges)
    ("C v O", (4, 2), 3, 1576,
     "48d34fd82c11c8f2750ad5900cb23db805d46d5e7b99e5f22408821ea7fc6de2"),
    ("C v O", (5, 2), 4, 17731,
     "060953145fdd4fd127d65318211ba1da50dac75f9e92f995b79d3bd1834259be"),
]


@pytest.mark.parametrize("family,params,chi_la,nodes,digest", DESK_SEARCHES,
                         ids=[f"{f} {p}" for f, p, *_ in DESK_SEARCHES])
def test_desk_searches_are_pinned(family, params, chi_la, nodes, digest):
    if family == "C3 v O2 minus":
        g = delete_edge(join(build_family("cycle", 3), build_family("null", 2)), params)
    elif family == "C v O":
        g = join(build_family("cycle", params[0]), build_family("null", params[1]))
    else:
        g = family_graph(family, params)
    report = exact_chi_la(g, SearchConfig(max_edges=15))
    witness = json.dumps(report.witness.to_json(), sort_keys=True).encode()
    assert (report.chi_la, report.exact, report.nodes_explored) == (chi_la, True, nodes)
    assert hashlib.sha256(witness).hexdigest() == digest
