import functools
import random

import pytest
from hypothesis import settings, strategies as st

from lajoin.graphs import Graph, build_family, delete_edge, edge, join

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
