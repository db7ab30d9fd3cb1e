"""The names of lajoin that the tooling outside the package reads.

That is the benchmark harness in ``perfbench/`` and the refactor gate
``tools/output_digest.py``. Both are read as text and never imported, so
these tests write nothing under ``perfbench/`` and run no digest. A
function deleted or renamed in lajoin but still named there fails here,
not only in a traced benchmark run or a digest run.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

from lajoin.constructions import CitedCaseError, build_construction, family_graph

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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


def _digest_imports() -> list[tuple[str, str]]:
    # Each (module, name) that tools/output_digest.py imports as
    # ``from lajoin<.module> import <name>``
    tree = ast.parse((ROOT / "tools" / "output_digest.py").read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lajoin"
        for alias in node.names
    ]


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


def test_every_name_the_output_digest_imports_resolves():
    refs = _digest_imports()
    assert ("lajoin.cli", "main") in refs and ("lajoin.constructions", "sweep_points") in refs
    missing = [(m, n) for m, n in refs if not hasattr(importlib.import_module(m), n)]
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
