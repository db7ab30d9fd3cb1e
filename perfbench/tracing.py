"""Spans around calls into lajoin's public functions, recorded from outside.

A ``Tracer`` replaces each traced function at every name that binds it:
module globals (``lajoin.constructions.join`` as well as
``lajoin.graphs.join``) and class attributes (``Graph.from_json``). The
library itself is not edited; a call made through any of those names opens
a span. Spans stay in memory as tuples and are written out once, at exit.

A span is ``(name, parent, op, start_ns, end_ns, info)``: ``parent`` is the
index of the enclosing span or -1, ``op`` is the benchmark operation the
span belongs to, and ``info`` carries what a metric needs from the call
(the shape of a magic rectangle, the solver's node count).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute) pairs; the attribute may be "Class.method".
TRACED = (
    ("graphs", "join"),
    ("graphs", "build_family"),
    ("graphs", "chromatic_number_exact"),
    ("graphs", "Graph.from_json"),
    ("arrays", "magic_rectangle"),
    ("arrays", "nearly_magic_rectangle"),
    ("constructions", "build_construction"),
    ("constructions", "sweep_points"),
    ("labelings", "verify_local_antimagic"),
    ("labelings", "check_complement_valid"),
    ("labelings", "check_deletion_certificate"),
    ("labelings", "delete_labeled_edge"),
    ("labelings", "complement_labeling"),
    ("labelings", "export_matrix"),
    ("labelings", "EdgeLabeling.from_json"),
    ("labelings", "EdgeLabeling.to_json"),
    ("solver", "exact_chi_la"),
    ("cli", "main"),
)

CERTIFICATES = (
    "labelings.check_complement_valid",
    "labelings.check_deletion_certificate",
    "labelings.delete_labeled_edge",
    "labelings.complement_labeling",
)

# An instance with at least this many edges is a "hard" solver instance.
HARD_Q = 11


def _span_info(name: str, args: tuple, result) -> object:
    if name == "arrays.magic_rectangle":
        return list(args[:2])
    if name == "solver.exact_chi_la" and result is not None:
        return [args[0].q, result.nodes_explored, result.exact]
    return None


def _span_name(name: str, args: tuple) -> str:
    # One CLI span per subcommand: cli.gen, cli.verify, cli.matrix.
    if name == "cli.main":
        return f"cli.{args[0][0]}"
    return name


class Tracer:
    """Records spans while installed and ``active``; see the module docstring."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name ("graphs") -> imported module
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1] if stack else -1
                spans[index] = (
                    _span_name(name, args), parent, self.op, start, end,
                    _span_info(name, args, result),
                )

        return traced

    def install(self) -> None:
        """Patch every binding of every traced function."""
        for module_name, attr in TRACED:
            home = self.modules[module_name]
            name = f"{module_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = vars(cls)[meth]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(name, fn)
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                setattr(cls, meth, wrapped)
                self._undo.append((cls, meth, raw))
                continue
            fn = getattr(home, attr)
            wrapped = self._wrap(name, fn)
            for mod in self.modules.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, fn))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def add(self, counter: str, amount: int) -> None:
        if self.active:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    @contextmanager
    def paused(self):
        """Leave the benchmark's own correctness checks out of the spans."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def take(self) -> tuple[list[tuple], dict[str, int]]:
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counters = list(self.spans), dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def write_spans(path, passes: list[list[tuple]]) -> None:
    """One JSON line per span, prefixed by the index of its pass."""
    with open(path, "w") as fh:
        for number, spans in enumerate(passes):
            for span in spans:
                fh.write(json.dumps([number, *span]) + "\n")


def layer_metrics(spans: list[tuple], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one pass, from that pass's spans.

    ``calls`` and ``s`` count outermost calls only: a span nested inside a
    span of the same group (``magic_rectangle`` calling itself for the
    transposed shape) adds neither a call nor time. ``self_s`` is a span's
    duration minus the durations of its direct children.
    """
    group_of = {name: "labelings.certificates" for name in CERTIFICATES}
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, int] = defaultdict(int)
    child_ns: dict[int, int] = defaultdict(int)
    shapes = set()
    nodes = hard_nodes = hard_ns = small_ns = timeouts = 0

    for name, parent, _op, start, end, _info in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for i, (name, parent, _op, start, end, info) in enumerate(spans):
        group = group_of.get(name, name)
        ancestor = parent
        while ancestor >= 0 and group_of.get(spans[ancestor][0], spans[ancestor][0]) != group:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            calls[group] += 1
            busy[group] += end - start
        if name == "constructions.build_construction":
            busy["constructions.build_construction.self"] += end - start - child_ns[i]
        elif name == "arrays.magic_rectangle":
            shapes.add(tuple(info))
        elif name == "solver.exact_chi_la" and info is not None:
            q, found, exact = info
            nodes += found
            timeouts += not exact
            if q >= HARD_Q:
                hard_nodes += found
                hard_ns += end - start
            else:
                small_ns += end - start

    def seconds(group: str) -> float:
        return busy[group] / 1e9

    return {
        "graphs.join.calls": calls["graphs.join"],
        "graphs.join.s": seconds("graphs.join"),
        "graphs.build_family.calls": calls["graphs.build_family"],
        "graphs.build_family.s": seconds("graphs.build_family"),
        "graphs.chromatic_number_exact.s": seconds("graphs.chromatic_number_exact"),
        "graphs.from_json.s": seconds("graphs.from_json"),
        "arrays.magic_rectangle.calls": calls["arrays.magic_rectangle"],
        "arrays.magic_rectangle.distinct_shapes": len(shapes),
        "arrays.magic_rectangle.s": seconds("arrays.magic_rectangle"),
        "arrays.nearly_magic_rectangle.calls": calls["arrays.nearly_magic_rectangle"],
        "arrays.nearly_magic_rectangle.s": seconds("arrays.nearly_magic_rectangle"),
        "constructions.build_construction.calls": calls["constructions.build_construction"],
        "constructions.build_construction.s": seconds("constructions.build_construction"),
        "constructions.build_construction.self_s": seconds("constructions.build_construction.self"),
        "constructions.sweep_points.s": seconds("constructions.sweep_points"),
        "labelings.verify_local_antimagic.calls": calls["labelings.verify_local_antimagic"],
        "labelings.verify_local_antimagic.s": seconds("labelings.verify_local_antimagic"),
        "labelings.certificates.s": seconds("labelings.certificates"),
        "labelings.export_matrix.s": seconds("labelings.export_matrix"),
        "labelings.from_json.s": seconds("labelings.from_json"),
        "labelings.to_json.s": seconds("labelings.to_json"),
        "solver.nodes": nodes,
        "solver.hard.nodes": hard_nodes,
        "solver.hard.s": hard_ns / 1e9,
        "solver.small.s": small_ns / 1e9,
        "solver.nodes_per_s": nodes * 1e9 / (hard_ns + small_ns) if nodes else 0.0,
        "solver.timeouts": timeouts,
        "cli.gen.s": seconds("cli.gen"),
        "cli.verify.s": seconds("cli.verify"),
        "cli.matrix.s": seconds("cli.matrix"),
        "cli.bytes_out": counters.get("cli.bytes_out", 0),
    }
