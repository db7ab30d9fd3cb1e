"""The names of lajoin that the benchmark harness in ``perfbench/`` reads.

The harness is read as text and never imported, so these tests write
nothing under ``perfbench/``. A function deleted or renamed in lajoin but
still named there fails here, not only in a traced benchmark run.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

from lajoin.constructions import CitedCaseError, build_construction, family_graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _literal(file: str, name: str):
    # The literal value that perfbench/``file`` assigns to ``name``
    tree = ast.parse((PERFBENCH / file).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{file} assigns no {name}")


def _traced() -> tuple:
    # perfbench/tracing.py's TRACED, a literal tuple of (module, attribute)
    return _literal("tracing.py", "TRACED")


def _workload_references() -> set[tuple[str, str]]:
    # Each (module, name) that perfbench/workloads.py reads, as
    # ``lj.<module>.<name>`` or through a short alias such as
    # ``C, G = lj.constructions, lj.graphs``.
    source = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    refs = set(re.findall(r"\blj\.(\w+)\.(\w+)", source))
    for names, modules in re.findall(r"^\s*(\w+(?:, \w+)*) = (lj\.\w+(?:, lj\.\w+)*)$", source, re.M):
        for alias, module in zip(names.split(", "), modules.split(", ")):
            module = module.removeprefix("lj.")
            refs.update((module, name) for name in re.findall(rf"\b{alias}\.(\w+)", source))
    return refs


@pytest.mark.parametrize("module,attr", _traced())
def test_every_traced_name_resolves(module, attr):
    home = importlib.import_module(f"lajoin.{module}")
    if "." in attr:
        # Tracer.install patches the method where the class defines it
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(home, cls_name)), attr
    else:
        assert callable(getattr(home, attr)), attr


def test_every_name_the_workloads_read_exists():
    refs = _workload_references()
    # the regexes find both spellings
    assert ("solver", "exact_chi_la") in refs and ("constructions", "CitedCaseError") in refs
    assert ("graphs", "delete_edge") in refs
    missing = [(m, n) for m, n in sorted(refs) if not hasattr(importlib.import_module(f"lajoin.{m}"), n)]
    assert not missing


def test_desk_points_keep_their_graphs():
    # solve-desk takes each desk point's graph from build_construction, or
    # from the CitedCaseError of a cited point; that is the point's
    # family_graph, and the desk keeps its 12 instances.
    points = _literal("workloads.py", "DESK_POINTS")
    assert len(points) + len(_literal("workloads.py", "DESK_DELETIONS")) == 12
    for family, params, _ in points:
        try:
            graph = build_construction(family, params).graph
        except CitedCaseError as exc:
            graph = exc.graph
        want = family_graph(family, params)
        assert (graph.n, graph.edges, graph.roles, graph.family) == (want.n, want.edges, want.roles, want.family)
