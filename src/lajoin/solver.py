"""Exact minimum color count over all edge labelings, by pruned search.

The search assigns the labels 1..q to edges depth-first. A vertex's sum is
final once all its incident edges are labeled, at which point it is
compared against its finalized neighbors; equal adjacent sums prune the
branch. A running count of the vertices at each finalized sum gives the
colors already fixed: a branch with as many as the best labeling so far is
cut, and at a leaf it is the color count. The chromatic number gives a
global lower bound, so the search stops as soon as it is attained.

Reach prune. The slack is the best labeling's colors minus the finalized
sums; a better labeling adds fewer new sums than that. An open endpoint of
the edge just labeled, with sum s and r unlabeled edges, ends between s
plus the r smallest and s plus the r largest free labels; if no finalized
sum in that range is free of its finalized neighbors' sums, it needs a
new sum of its own. The two endpoints are adjacent, so if both need one,
they need two. A branch survives only while the slack exceeds the number
of endpoints that need a new sum: at slack 0 or less this is the color
bound, at slack 1 both endpoints must reach a finalized sum, at slack 2
one of them must, and at slack 3 or more nothing is checked. A cut subtree
holds no leaf better than the best so far, and the best only falls, so
the search meets the same improving leaves in the same order: the
optimum, the witness and where a target stops are unchanged, only the
node count falls (and with it where a time budget runs out).

Edge order. Edges are labeled in finalize-soonest order: repeatedly the
vertex with the fewest unplaced incident edges (ties: smaller degree, then
smaller id) is taken and all its unplaced edges are appended. Vertex sums
then become final, and the two prunes above fire, many levels earlier
than under an order by endpoint degree.

Symmetry breaking, one of two rules per graph, neither of which changes
the optimum:

* Regular graphs: the reflection f <-> q+1-f keeps adjacent sums distinct
  and the color count, so label 1 is required on an earlier edge than
  label q.
* Non-regular graphs: twin vertices, those with equal open neighborhoods
  (such as the null side of every G v O_N), may be permuted among
  themselves by an automorphism. For each twin class u1 < u2 < ... with
  smallest common neighbor x the search requires
  f(x u1) > f(x u2) > ..., checked when the later of two such edges is
  labeled (lex-leader constraints, Crawford et al., KR 1996). Every
  labeling has an image under these permutations meeting all of them:
  each class can be ordered after the class holding its x, except in
  pairs of classes holding each other's x. Such a pair is joined
  completely, and the largest label between the two fixes both orders.

The two rules are not combined: the reflection reverses every twin
inequality, so together they can exclude a whole symmetry orbit. Regular
graphs therefore keep the reflection alone.

Labels are tried largest first, which prunes faster on join graphs.
Results are deterministic. Splitting the tree at the root (by the first
edge's label) and taking the minimum over the parts would reproduce them
exactly; nothing here depends on exploration order beyond the fixed edge
and label orders.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .constructions import GENERIC_FAMILIES, CitedCaseError, build_construction, check_params
from .graphs import Edge, Graph, ParameterError, chromatic_lower_bound, edge
from .labelings import EdgeLabeling, verify_local_antimagic


class _Limits(NamedTuple):
    max_edges: int = 12
    target_colors: int | None = None
    time_budget: float = 60.0


class SearchConfig(_Limits):
    """Limits of the exact search: its size, an early-stop target, its time."""

    __slots__ = ()

    def __new__(cls, *fields, **named):
        self = super().__new__(cls, *fields, **named)
        # exact types: neither True nor "12" is a count
        if type(self.max_edges) is not int:
            raise ParameterError(f"max_edges must be an integer, got {self.max_edges!r}")
        if self.target_colors is not None and type(self.target_colors) is not int:
            raise ParameterError(f"target colors must be an integer, got {self.target_colors!r}")
        if type(self.time_budget) not in (int, float):
            raise ParameterError(f"time budget must be a number of seconds, got {self.time_budget!r}")
        if self.max_edges < 1:
            raise ParameterError("max_edges must be at least 1")
        if self.target_colors is not None and self.target_colors < 1:
            raise ParameterError("target colors must be at least 1")
        if not self.time_budget > 0:  # also rejects NaN
            raise ParameterError("time budget must be positive")
        return self


class SolveReport(NamedTuple):
    """Result of an exact search. ``exact`` is False on timeout, and when a
    target stopped the search above the chromatic lower bound."""

    chi_la: int | None
    exact: bool
    witness: EdgeLabeling | None
    nodes_explored: int
    elapsed: float

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "chi_la": self.chi_la,
            "exact": self.exact,
            "nodes_explored": self.nodes_explored,
            "elapsed": round(self.elapsed, 3),
            "witness": self.witness.to_json() if self.witness else None,
        }


def _finalize_soonest_order(g: Graph) -> list[Edge]:
    """Search order in which vertex sums become final as early as possible.

    Repeatedly takes the vertex with the fewest unplaced incident edges
    (ties: smaller degree, then smaller id) and appends all of its unplaced
    edges, in neighbor order. Each such vertex's sum is final at the last
    of its edges, so the adjacency and color-bound prunes fire early.
    """
    unplaced = {v: g.degree(v) for v in g.vertices}
    placed: set[Edge] = set()
    order: list[Edge] = []
    while len(order) < g.q:
        v = min(
            (u for u in g.vertices if unplaced[u]),
            key=lambda u: (unplaced[u], g.degree(u), u),
        )
        for u in g.neighbors(v):
            e = edge(v, u)
            if e not in placed:
                placed.add(e)
                order.append(e)
                unplaced[v] -= 1
                unplaced[u] -= 1
    return order


def _twin_classes(g: Graph) -> list[tuple[int, tuple[int, ...]]]:
    """(x, (u1 < u2 < ...)) for each class of >= 2 vertices with equal open
    neighborhoods, x being their smallest common neighbor."""
    classes: dict[tuple[int, ...], list[int]] = {}
    for v in g.vertices:
        if g.neighbors(v):
            classes.setdefault(g.neighbors(v), []).append(v)
    return [(nbrs[0], tuple(vs)) for nbrs, vs in classes.items() if len(vs) > 1]


def exact_chi_la(g: Graph, cfg: SearchConfig = SearchConfig()) -> SolveReport:
    """Minimum color count over all proper labelings of ``g``.

    Exhaustive over the q! bijections up to pruning; graphs beyond
    cfg.max_edges edges are rejected (the factorial search is desk-scale
    only). On budget expiry the best labeling found so far is returned
    with ``exact=False``; so is one that stops at cfg.target_colors above
    the chromatic lower bound.
    """
    if g.n < 3:
        raise ParameterError("local antimagic labelings need at least 3 vertices")
    if g.q > cfg.max_edges:
        raise ParameterError(
            f"graph has {g.q} > {cfg.max_edges} edges; raise max_edges to force the search"
        )
    if g.q == 0:
        raise ParameterError("the graph has no edges to label")

    q = g.q
    edges = _finalize_soonest_order(g)
    adj = g.adjacency
    regular = len({g.degree(v) for v in g.vertices}) == 1
    # twin_checks[i]: (j, larger) pairs with j < i; edge i's label must be
    # larger than edge j's when ``larger``, else smaller.
    twin_checks: list[list[tuple[int, bool]]] = [[] for _ in range(q)]
    if not regular:
        index = {e: i for i, e in enumerate(edges)}
        for x, twins in _twin_classes(g):
            chain = [index[edge(x, u)] for u in twins]
            for hi, lo in zip(chain, chain[1:]):
                # f(x u_k) > f(x u_k+1), checked when the later edge is labeled
                twin_checks[max(hi, lo)].append((min(hi, lo), hi > lo))

    sums = {v: 0 for v in g.vertices}
    remaining = {v: g.degree(v) for v in g.vertices}
    # finalized sum -> number of finalized vertices holding it; isolated
    # vertices are final from the start, at sum 0
    isolated = sum(1 for v in g.vertices if not remaining[v])
    final = {0: isolated} if isolated else {}
    assigned: list[int] = [0] * q  # edge index -> label, 0 = unassigned
    used = [False] * (q + 1)
    best_count, best_labels = g.n + 1, None  # no labeling has more colors than vertices
    lower = chromatic_lower_bound(g)
    stop = max(lower, cfg.target_colors or 0)
    nodes = 0
    deadline = time.monotonic() + cfg.time_budget
    timed_out = False

    def can_finish(v: int) -> bool:
        """Whether v is final or can still end on a finalized sum that no
        finalized neighbor holds. Its r unlabeled edges take free labels, so
        its final sum lies between its sum plus the r smallest and plus the
        r largest of them; ``used`` is scanned from each end."""
        r = remaining[v]
        if not r:
            return True
        lo = hi = sums[v]
        k, lab = r, 1
        while k:
            if not used[lab]:
                lo += lab
                k -= 1
            lab += 1
        k, lab = r, q
        while k:
            if not used[lab]:
                hi += lab
                k -= 1
            lab -= 1
        for s in final:
            if lo <= s <= hi:
                for u in adj[v]:
                    if sums[u] == s and not remaining[u]:
                        break
                else:
                    return True
        return False

    def search(i: int) -> bool:
        """Returns True to stop the whole search (target or bound reached)."""
        nonlocal nodes, timed_out, best_count, best_labels
        nodes += 1
        if nodes % 4096 == 0 and time.monotonic() > deadline:
            timed_out = True
            return True
        if i == q:
            # the color-bound prune let this leaf through, so it improves
            best_count = len(final)
            best_labels = dict(zip(edges, assigned))
            return best_count <= stop
        a, b = edges[i]
        checks = twin_checks[i]
        for lab in range(q, 0, -1):
            if used[lab]:
                continue
            # orient the reflection f <-> q+1-f: label 1 before label q
            if regular and (lab == q and not used[1] or lab == 1 and used[q]):
                continue
            if checks and not all((lab > assigned[j]) == larger for j, larger in checks):
                continue
            used[lab] = True
            assigned[i] = lab
            sums[a] += lab
            sums[b] += lab
            remaining[a] -= 1
            remaining[b] -= 1
            ok = True
            for v in (a, b):
                if ok and remaining[v] == 0:
                    for u in adj[v]:
                        if remaining[u] == 0 and sums[u] == sums[v]:
                            ok = False
                            break
            if ok:
                done = [sums[v] for v in (a, b) if remaining[v] == 0]
                for s in done:
                    final[s] = final.get(s, 0) + 1
                # a leaf must add fewer than ``slack`` new sums; each open
                # endpoint that cannot end on a finalized sum adds one, and
                # the two are adjacent, so they add two
                slack = best_count - len(final)
                if (slack > 2 or slack == 2 and (can_finish(a) or can_finish(b))
                        or slack == 1 and can_finish(a) and can_finish(b)) and search(i + 1):
                    return True
                for s in done:
                    final[s] -= 1
                    if not final[s]:
                        del final[s]
            used[lab] = False
            assigned[i] = 0
            sums[a] -= lab
            sums[b] -= lab
            remaining[a] += 1
            remaining[b] += 1
        return False

    start = time.monotonic()
    stopped = search(0)
    elapsed = time.monotonic() - start

    # a run to the end is exhaustive; an early stop proves an optimum only
    # at the lower bound
    exact = not stopped or not timed_out and best_count <= lower
    if best_labels is None:
        return SolveReport(None, exact, None, nodes, elapsed)
    return SolveReport(best_count, exact, EdgeLabeling(g, best_labels), nodes, elapsed)


class ConfirmationVerdict(NamedTuple):
    """Outcome of cross-checking a family construction."""

    family: str
    params: dict
    verdict: str  # matched | upper-bound-only | inconclusive | mismatch | out-of-range
    claimed_chi_la: int | None
    measured_colors: int | None
    chi_lower_bound: int | None
    solver_chi_la: int | None
    detail: str

    def to_json(self) -> dict:
        return {"schema": "v1", **self._asdict(), "params": dict(self.params)}


def confirm_theorem(family: str, params: dict, cfg: SearchConfig = SearchConfig()) -> ConfirmationVerdict:
    """Confirm a family's claim at one parameter point as far as feasible.

    The evidence is gathered once: the claim (a construction re-verified
    from scratch, or the value a cited point carries), the exact search
    when the graph has at most cfg.max_edges edges, and the chromatic
    lower bound for a construction that search does not settle. The verdict
    is then read off that evidence. A point the family does not cover is
    ``out-of-range``, with the generator's reason; a bad flag (see
    ``check_params``) raises ParameterError instead.
    """
    check_params(family, params)
    claim = None

    def verdict(name, measured, lower, solver, detail) -> ConfirmationVerdict:
        # reads ``claim`` as set by the time of the call
        return ConfirmationVerdict(family, params, name, claim, measured, lower, solver, detail)

    try:
        res = build_construction(family, params)
    except CitedCaseError as exc:
        cited, g, claim, measured = True, exc.graph, exc.cited_chi_la, None
    except ParameterError as exc:
        return verdict("out-of-range", None, None, None, str(exc))
    else:
        cited, g, claim = False, res.graph, res.claimed_chi_la
        cert = verify_local_antimagic(g, res.labeling)
        measured = cert.color_count
        if not cert.ok or measured != claim or frozenset(cert.color_classes) != res.claimed_colors:
            detail = "construction failed verification against its claim"
            return verdict("mismatch", measured, None, None, detail)
    report = exact_chi_la(g, cfg) if g.q <= cfg.max_edges else None

    if report is not None and report.exact:
        if report.chi_la == claim:
            detail = ("cited value confirmed by exact search" if cited
                      else "optimality confirmed by exact search")
            return verdict("matched", claim, None, claim, detail)
        if not cited and family in GENERIC_FAMILIES and report.chi_la < claim:
            # A generic scheme claims only the count it achieves, so a smaller
            # optimum is no contradiction; its verified labeling bars a larger one.
            detail = "construction verified but not optimal at this point"
            return verdict("upper-bound-only", measured, None, report.chi_la, detail)
        detail = ("exact search disagrees with the cited value" if cited
                  else "exact search found a different optimum")
        return verdict("mismatch", measured, None, report.chi_la, detail)
    if cited and report is None:
        detail = "cited result; graph too large for the exact solver"
        return verdict("upper-bound-only", None, None, None, detail)
    if cited:
        # A best-so-far count is only an upper bound, not a solver value.
        detail = "exact search ran out of time before settling the cited value"
        return verdict("inconclusive", None, None, None, detail)
    lower = chromatic_lower_bound(g)
    if lower == claim:
        return verdict("matched", measured, lower, None, "claim meets the chromatic lower bound")
    detail = "verified labeling gives an upper bound; no matching lower bound at this size"
    return verdict("upper-bound-only", measured, lower, None, detail)
