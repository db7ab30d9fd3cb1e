import functools
import random

import pytest
from hypothesis import settings

from lajoin.graphs import Graph, edge

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


# The timeout tests' cited point: the wheel C_6 v O_1 (q 12, cited chi_la 3).
SLOW_CITED = ("cycle-join-null", {"m": 3, "n": 1})


@functools.cache
def slow_cited_nodes() -> int:
    """Nodes the unbounded exact search explores on SLOW_CITED. A tiny time
    budget times the search out only if this passes the first deadline
    check, at node 4096."""
    from lajoin.constructions import CitedCaseError, build_construction
    from lajoin.solver import exact_chi_la

    with pytest.raises(CitedCaseError) as info:
        build_construction(*SLOW_CITED)
    return exact_chi_la(info.value.graph).nodes_explored


@pytest.fixture
def rng():
    return random.Random(20240817)
