"""Benchmark of lajoin, end to end and layer by layer.

One workload, as a closed loop in this process (one operation at a time):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, each in its own process, untraced and then traced, with one
table of the end-to-end metrics and one of the per-layer metrics; the
results are also written to perfbench/out/BENCH_<commit>_seed<N>.json:

    python3 perfbench/run.py [--seed N] [--seconds S]

A run imports lajoin from this checkout's src/ and exits with code 2,
printing no result, when it is not there. With ``--trace 0`` the last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics. The exit code is 1 when any output was wrong. README.md in this
directory says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from contextlib import nullcontext
from pathlib import Path

from tracing import Tracer, layer_metrics, write_spans
from hostspeed import HostProbe, host_speed, probe
from workloads import WORKLOADS, PassResult

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
LAYERS = ("graphs", "arrays", "constructions", "labelings", "solver", "cli")
SETUP_REPEATS = 9
DEFAULT_SECONDS = 30
# A percentile is reported only with at least ten samples beyond it.
P99_MIN_SAMPLES = 1000

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "failed_frac": "1",
    "peak_rss_mb": "MB",
}
# Printed, but left out of the result line that BENCHMARK.json gates:
# - op_p50_ms: solve-desk's twelve instances take from 0.05 ms to 10 s, and
#   its median falls between a 1 ms and a 5 ms instance, so it moves by a
#   third from run to run on this workload;
# - op_p99_ms: solve-desk never has ten samples beyond it;
# - failed_frac: 0 on a correct run; the result line carries "attempted"
#   and "failed" instead.
REPORT_ONLY = ("op_p50_ms", "op_p99_ms", "failed_frac")


def layer_unit(metric: str) -> str:
    if metric.endswith("nodes_per_s"):
        return "1/s"
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("bytes_out"):
        return "B"
    return "count"


def import_lajoin() -> types.SimpleNamespace:
    """Import lajoin and its six layers afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "lajoin" or n.startswith("lajoin.")]:
        del sys.modules[name]
    package = importlib.import_module("lajoin")
    if Path(package.__file__).resolve().parent != SRC / "lajoin":
        raise ImportError(f"lajoin came from {package.__file__}, not from {SRC}")
    layers = {name: importlib.import_module(f"lajoin.{name}") for name in LAYERS}
    return types.SimpleNamespace(lajoin=package, **layers)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up ``SETUP_REPEATS`` times, then run passes for ``seconds``.

    A traced run alternates untraced and traced passes, at least one of
    each, so that the overhead of tracing is measured in the same process.
    Returns the result line and the run's details.
    """
    setup, run_pass = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT) as workdir:
        setup_s, setup_probes = [], [probe()]
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            lj = import_lajoin()
            state = setup(lj, seed, Path(workdir))
            setup_s.append(time.perf_counter() - start)
            setup_probes.append(probe())

        tracer = Tracer(vars(lj))
        if trace:
            tracer.install()
        host = HostProbe()
        passes: list[PassResult] = []
        traced_spans = []
        deadline = time.perf_counter() + seconds
        try:
            # A traced run reports raw per-layer times and is not rescaled.
            with nullcontext() if trace else host:
                while len(passes) < 1 + trace or time.perf_counter() < deadline:
                    result = PassResult(tracer, host.clock, traced=trace and len(passes) % 2 == 1)
                    tracer.active = result.traced
                    run_pass(state, len(passes), result)
                    tracer.active = False
                    spans, counters = tracer.take()
                    if result.traced:
                        result.layers = layer_metrics(spans, counters)
                        traced_spans.append(spans)
                    elif not trace:
                        result.speed = host_speed(host.take())
                    passes.append(result)
        finally:
            tracer.uninstall()

    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    ops = sorted(t for r in passes for t in r.op_ns)
    details = environment(name, seed) | {
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "pass_raw_s": [r.work_ns / 1e9 for r in passes],
        "pass_speed": [r.speed for r in passes],
        "setup_raw_s": setup_s,
        "setup_speed": host_speed(setup_probes),
        "op_samples": len(ops),
    }
    if trace:
        layers = [r.layers for r in passes if r.traced]
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        walls = {t: statistics.median(r.work_ns / 1e9 for r in passes if r.traced == t)
                 for t in (False, True)}
        metrics["trace.overhead_s"] = walls[True] - walls[False]
        spans_file = OUT / f"spans-{name}-seed{seed}.jsonl"
        write_spans(spans_file, traced_spans)
        details["spans_file"] = str(spans_file.relative_to(ROOT))
        units = {key: layer_unit(key) for key in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup_s) * details["setup_speed"],
            "wall_s": statistics.median(r.work_ns * r.speed / 1e9 for r in passes),
            "ops_per_s": statistics.median(len(r.op_ns) * 1e9 / (r.work_ns * r.speed) for r in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        details["op_p50_ms"] = statistics.median(ops) / 1e6
        if len(ops) >= P99_MIN_SAMPLES:
            details["op_p99_ms"] = statistics.quantiles(ops, n=100)[98] / 1e6
        details["failed_frac"] = failed / attempted
        units = END_TO_END_UNITS
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return line, details


def shown(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_single(line: dict, details: dict) -> None:
    name = details["workload"]
    rows = {k: (m["value"], m["unit"]) for k, m in line["metrics"].items()}
    if not details["trace"]:
        for metric in REPORT_ONLY:
            rows[metric] = (details.get(metric, "n/a"), END_TO_END_UNITS[metric])
    for metric, (value, unit) in rows.items():
        print(f"{name:16} {metric:42} {shown(value):>14} {unit}")
    print("meta " + json.dumps(details, sort_keys=True))


def run_suite(seed: int, seconds: float) -> int:
    """Every workload in its own process, untraced and then traced."""
    results: dict[tuple[str, int], tuple[dict, dict]] = {}
    status = 0
    for trace in (0, 1):
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} (trace {trace}) exited with {proc.returncode}", file=sys.stderr)
                status = 1
            if len(lines) >= 2 and lines[-2].startswith("meta "):
                results[name, trace] = (json.loads(lines[-1]), json.loads(lines[-2][5:]))

    names = [n for n in WORKLOADS if (n, 0) in results]
    print("end to end (untraced)")
    print(f"{'metric':24}" + "".join(f"{n:>18}" for n in names))
    for metric, unit in END_TO_END_UNITS.items():
        cells = []
        for n in names:
            line, details = results[n, 0]
            value = line["metrics"][metric]["value"] if metric in line["metrics"] else details.get(metric)
            cells.append("n/a" if value is None else shown(value))
        print(f"{metric + ' [' + unit + ']':24}" + "".join(f"{c:>18}" for c in cells))
    traced = [n for n in WORKLOADS if (n, 1) in results]
    if traced:
        print("\nper layer (traced)")
        print(f"{'metric':48}" + "".join(f"{n:>18}" for n in traced))
        for metric, m in results[traced[0], 1][0]["metrics"].items():
            cells = [shown(results[n, 1][0]["metrics"][metric]["value"]) for n in traced]
            print(f"{metric + ' [' + m['unit'] + ']':48}" + "".join(f"{c:>18}" for c in cells))

    OUT.mkdir(exist_ok=True)
    report = OUT / f"BENCH_{git_commit()[:12]}_seed{seed}.json"
    report.write_text(json.dumps(
        [{"result": line, "details": details} for line, details in results.values()], indent=2
    ) + "\n")
    print(f"\nwrote {report.relative_to(ROOT)}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    try:
        import_lajoin()
    except ImportError as exc:
        print(f"error: cannot import lajoin from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_suite(args.seed, args.seconds)
    line, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_single(line, details)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
