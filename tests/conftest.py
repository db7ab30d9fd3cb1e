import functools
import random
import re
import time
from typing import NamedTuple

import pytest
from hypothesis import settings, strategies as st

from lajoin.graphs import Graph, ParameterError, build_family, delete_edge, edge, join

settings.register_profile("default", derandomize=True, database=None, deadline=None)
settings.load_profile("default")


def random_graph(rng: random.Random, min_n: int = 3, max_n: int = 8) -> Graph:
    """Random connected-ish simple graph with at least one edge."""
    n = rng.randint(min_n, max_n)
    edges = set()
    for v in range(2, n + 1):
        edges.add(edge(rng.randint(1, v - 1), v))
    extra = rng.randint(0, n)
    for _ in range(extra):
        a, b = rng.sample(range(1, n + 1), 2)
        edges.add(edge(a, b))
    roles = tuple(f"u{i}" for i in range(1, n + 1))
    return Graph(n, tuple(sorted(edges)), roles)


def random_labeling(rng: random.Random, g: Graph):
    from lajoin.labelings import EdgeLabeling

    labels = list(range(1, g.q + 1))
    rng.shuffle(labels)
    return EdgeLabeling(g, dict(zip(g.edges, labels)))


# kind -> its smallest order
SMALLEST_ORDER = {"path": 2, "cycle": 3, "null": 1, "complete": 1}


def _base_graphs():
    one_order = st.sampled_from(sorted(SMALLEST_ORDER)).flatmap(
        lambda kind: st.integers(SMALLEST_ORDER[kind], SMALLEST_ORDER[kind] + 6).map(lambda k: build_family(kind, k))
    )
    sides = st.tuples(st.integers(1, 7), st.integers(1, 7))
    return st.one_of(one_order, sides.map(lambda mn: build_family("complete-bipartite", *mn)))


def _minus_an_edge(g):
    if not g.edges:
        return st.just(g)
    # either endpoint first: delete_edge normalizes the edge
    return st.sampled_from(g.edges).flatmap(lambda e: st.sampled_from([e, e[::-1]])).map(
        lambda e: delete_edge(g, e)
    )


# Graphs as the generators build them: base families, nested joins and
# edge deletions, none of which runs the checks of Graph(...).
built_graphs = st.recursive(
    _base_graphs(),
    lambda inner: st.one_of(st.tuples(inner, inner).map(lambda ab: join(*ab)), inner.flatmap(_minus_an_edge)),
    max_leaves=4,
)


# The timeout tests' cited point: the wheel C_6 v O_1 (q 12, cited chi_la 3).
SLOW_CITED = ("cycle-join-null", {"m": 3, "n": 1})


@functools.cache
def slow_cited_graph() -> Graph:
    """The graph of SLOW_CITED, built from the family registry."""
    from lajoin.constructions import family_graph

    return family_graph(*SLOW_CITED)


@functools.cache
def slow_cited_nodes() -> int:
    """Nodes the unbounded exact search explores on SLOW_CITED. A tiny time
    budget times the search out only if this passes the first deadline
    check, at node 4096."""
    from lajoin.solver import exact_chi_la

    return exact_chi_la(slow_cited_graph()).nodes_explored


@pytest.fixture
def rng():
    return random.Random(20240817)


def is_int_pair(x) -> bool:
    """True for a JSON edge: a list of two integers (``true`` is no integer).

    The JSON readers make the same test inline, one edge at a time; the
    per-item references of the tests make it through this function.
    """
    return isinstance(x, list) and len(x) == 2 and type(x[0]) is int and type(x[1]) is int


def per_vertex_roles(verts):
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


class SweepBuild(NamedTuple):
    points: list  # (family, params, ConstructionResult) in sweep order
    seconds: float  # time the builds took
    arrays_asked: frozenset  # (cached array builder, args) of every array call


@pytest.fixture(scope="session")
def budget_400_sweep() -> SweepBuild:
    """Every budget-400 sweep point of every family, built once per session.

    The array builders are wrapped while the points are built, so that the
    calls the sweep makes can be checked against fresh builds.
    """
    from lajoin import arrays, constructions

    asked = set()
    with pytest.MonkeyPatch.context() as patch:
        for name in ("siamese_magic_square", "magic_rectangle", "nearly_magic_rectangle"):
            cached = getattr(arrays, name)

            def record(*args, _cached=cached):
                asked.add((_cached, args))
                return _cached(*args)

            patch.setattr(arrays, name, record)
            patch.setattr(constructions, name, record)
        start = time.monotonic()
        points = [
            (family, params, constructions.build_construction(family, params))
            for family in constructions.ALL_FAMILIES
            for params in constructions.sweep_points(family, 400)
        ]
        seconds = time.monotonic() - start
    return SweepBuild(points, seconds, frozenset(asked))
