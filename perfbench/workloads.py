"""The three workloads: their inputs, one pass each, and the output checks.

A workload is a pair of functions. ``setup(lj, seed, workdir)`` turns the
workload seed into the inputs of a run (``workdir`` is an empty directory
for files the run writes); ``run_pass(state, number, res)`` runs pass
``number`` over them, one operation at a time, and records what it did in
the ``PassResult`` ``res``. ``lj`` holds the six lajoin modules; every call
goes through a module attribute (``lj.constructions.build_construction``)
so that a traced run sees it.

Only the program's calls are timed. The checks that compare each output
with its expected value run outside the timed region and, in a traced run,
outside the spans.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from tracing import Tracer

# The 14-family sweep at the default edge budget.
SWEEP_BUDGET = 400
SWEEP_POINTS = 3395
SWEEP_EDGES = 796_624

# Criterion-6 desk points (family, params, chi_la) plus two edge deletions
# from C_3 v O_2, whose optima the solver itself established.
DESK_POINTS = (
    ("path-join-null", {"m": 2, "N": 1}, 4),
    ("path-join-null", {"m": 3, "N": 1}, 3),
    ("path-join-null", {"m": 1, "N": 2}, 3),
    ("path-join-null", {"m": 1, "N": 4}, 3),
    ("path-join-null", {"m": 2, "N": 2}, 3),
    ("path-join-cycle", {"m": 1, "n": 2}, 5),
    ("path-join-complete", {"m": 1, "r": 3}, 5),
    ("cycle-join-null", {"m": 2, "n": 1}, 3),
    ("odd-cycle-join-even-null", {"n": 1}, 4),
    ("complete-join-odd-cycle", {"n": 1, "m": 2}, 5),
)
DESK_DELETIONS = (((1, 4), 4), ((1, 2), 3))

# Points per cli-roundtrip pass; each point makes three CLI calls.
CLI_POINTS = 300


@dataclass
class PassResult:
    """What one pass did: the time of each operation and what failed.

    Every operation is checked once; a pass-level gate (the sweep's point
    and edge totals) counts as one more checked output.
    """

    tracer: Tracer
    clock: Callable[[], int] = time.perf_counter_ns  # ns, host-speed probes left out
    traced: bool = False
    op_ns: list[int] = field(default_factory=list)
    work_ns: int = 0  # the program's time in the pass, checks excluded
    gates: int = 0
    failed: int = 0
    speed: float = 1.0  # host speed during the pass, 1.0 when not probed
    layers: dict | None = None  # per-layer metrics of a traced pass

    @property
    def attempted(self) -> int:
        return len(self.op_ns) + self.gates

    def timed(self, fn, *args):
        """Run one operation; returns its result, or None if it raised."""
        self.tracer.op = len(self.op_ns)
        start = self.clock()
        try:
            return fn(*args)
        except Exception:  # an operation that raises is a failed operation
            self.fail(traceback.format_exc(limit=-3))
            return None
        finally:
            elapsed = self.clock() - start
            self.op_ns.append(elapsed)
            self.work_ns += elapsed

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)

    def gate(self, ok: bool, what: str) -> None:
        self.gates += 1
        self.check(ok, what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"check failed: {what}", file=sys.stderr)


# -- construct-sweep -------------------------------------------------------


def sweep_setup(lj, seed: int, workdir: Path) -> dict:
    families = list(lj.constructions.ALL_FAMILIES)
    random.Random(seed).shuffle(families)
    return {"lj": lj, "families": families}


def sweep_pass(state: dict, number: int, res: PassResult) -> None:
    lj = state["lj"]
    points = []
    start = res.clock()
    for family in state["families"]:
        points.extend((family, p) for p in lj.constructions.sweep_points(family, SWEEP_BUDGET))
    res.work_ns += res.clock() - start

    def build_and_verify(family, params):
        built = lj.constructions.build_construction(family, params)
        return built, lj.labelings.verify_local_antimagic(built.graph, built.labeling)

    edges = 0
    for family, params in points:
        out = res.timed(build_and_verify, family, params)
        if out is None:
            continue
        built, cert = out
        edges += built.graph.q
        res.check(
            cert.ok
            and cert.color_count == built.claimed_chi_la
            and frozenset(cert.color_classes) == built.claimed_colors,
            f"{family} {params}: labeling does not meet its claim",
        )
    res.gate(len(points) == SWEEP_POINTS, f"sweep gave {len(points)} points, not {SWEEP_POINTS}")
    res.gate(edges == SWEEP_EDGES, f"sweep graphs have {edges} edges, not {SWEEP_EDGES}")


# -- solve-desk ------------------------------------------------------------


def desk_setup(lj, seed: int, workdir: Path) -> dict:
    C, G = lj.constructions, lj.graphs
    instances = []
    for family, params, chi_la in DESK_POINTS:
        try:
            graph = C.build_construction(family, params).graph
        except C.CitedCaseError as exc:
            graph = exc.graph
        instances.append((f"{family} {params}", graph, chi_la))
    base = G.join(G.build_family("cycle", 3), G.build_family("null", 2))
    for deleted, chi_la in DESK_DELETIONS:
        instances.append((f"C3 v O2 - {deleted}", G.delete_edge(base, deleted), chi_la))
    random.Random(seed).shuffle(instances)
    return {"lj": lj, "instances": instances}


def desk_pass(state: dict, number: int, res: PassResult) -> None:
    lj = state["lj"]
    for label, graph, chi_la in state["instances"]:
        report = res.timed(lj.solver.exact_chi_la, graph)
        if report is None:
            continue
        ok = report.exact and report.chi_la == chi_la and report.witness is not None
        if ok:
            with res.tracer.paused():
                cert = lj.labelings.verify_local_antimagic(graph, report.witness)
            ok = cert.ok and cert.color_count == chi_la
        res.check(ok, f"{label}: solver gave chi_la={report.chi_la} exact={report.exact}, not {chi_la}")


# -- cli-roundtrip ---------------------------------------------------------


def cli_setup(lj, seed: int, workdir: Path) -> dict:
    """Strata of the non-generic sweep points, each in a seeded order.

    The points, in sweep order, are cut into CLI_POINTS runs of neighbours
    with similar family and size. Pass k takes the k-th point of every
    stratum, so each pass sees points it has not built before (until a
    stratum runs out) while every pass does about the same work.
    """
    C = lj.constructions
    points = [
        (family, params)
        for family in C.ALL_FAMILIES
        if family not in C.GENERIC_FAMILIES
        for params in C.sweep_points(family, SWEEP_BUDGET)
    ]
    rng = random.Random(seed)
    strata = []
    for i in range(CLI_POINTS):
        stratum = points[i * len(points) // CLI_POINTS:(i + 1) * len(points) // CLI_POINTS]
        rng.shuffle(stratum)
        strata.append(stratum)
    return {"lj": lj, "strata": strata, "workdir": workdir}


def cli_pass(state: dict, number: int, res: PassResult) -> None:
    lj = state["lj"]
    workdir: Path = state["workdir"]
    for index, stratum in enumerate(state["strata"]):
        family, params = stratum[number % len(stratum)]
        prefix = workdir / f"p{index}"
        labeling = Path(f"{prefix}.labeling.json")
        outputs = [labeling, Path(f"{prefix}.matrix.csv"), Path(f"{prefix}.verify.txt"),
                   Path(f"{prefix}.input.csv")]
        flags = [x for key, value in params.items() for x in (f"--{key}", str(value))]
        calls = (
            ["gen", "--family", family, *flags, "--matrix", "--out", str(prefix)],
            ["verify", str(labeling), "--out", str(outputs[2])],
            ["matrix", "--input", str(labeling), "--format", "csv", "--out", str(outputs[3])],
        )
        # timed() already counted a call that raised; it returns None then
        for call in calls[:2]:
            code = res.timed(lj.cli.main, call)
            if code is not None:
                res.check(code == 0, f"lajoin {' '.join(call)} exited with {code}")
        code = res.timed(lj.cli.main, calls[2])
        if code is not None:
            ok = code == 0
            if ok:
                with res.tracer.paused():
                    built = lj.constructions.build_construction(family, params)
                    expected = lj.labelings.export_matrix(built.graph, built.labeling).to_csv()
                ok = outputs[3].read_text() == expected
            res.check(ok, f"{family} {params}: matrix --input exited with {code} "
                      "or differs from export_matrix")
        res.tracer.add("cli.bytes_out", sum(p.stat().st_size for p in outputs if p.exists()))
        for p in outputs:
            p.unlink(missing_ok=True)


WORKLOADS = {
    "construct-sweep": (sweep_setup, sweep_pass),
    "solve-desk": (desk_setup, desk_pass),
    "cli-roundtrip": (cli_setup, cli_pass),
}
