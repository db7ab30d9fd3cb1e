"""Checks of the benchmark itself.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

The exact-repeat check makes two traced runs of solve-desk and
construct-sweep, so the whole file takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import layer_metrics  # noqa: E402

sys.path.insert(0, str(run.SRC))

# Counts that must repeat exactly between two traced runs of one seed.
REPEATED = {
    "solve-desk": ("solver.nodes", "solver.hard.nodes"),
    "construct-sweep": (
        "graphs.join.calls",
        "arrays.magic_rectangle.calls",
        "arrays.magic_rectangle.distinct_shapes",
    ),
}


def benchmark(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True
    )


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == {
        k: u for k, u in run.END_TO_END_UNITS.items() if k not in run.REPORT_ONLY
    }
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [*layer_metrics([], {}), "trace.overhead_s"]
    assert layer == {k: run.layer_unit(k) for k in names}


def test_traced_counts_repeat_exactly():
    for name, keys in REPEATED.items():
        counts = []
        for _ in range(2):
            proc = benchmark("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1")
            assert proc.returncode == 0, proc.stderr
            metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
            counts.append({k: metrics[k]["value"] for k in keys})
        assert counts[0] == counts[1], (name, counts)
        if name == "solve-desk":
            assert counts[0] == {"solver.nodes": 2_597_853, "solver.hard.nodes": 2_584_190}


def test_wrong_expected_value_fails_the_run():
    lj = run.import_lajoin()
    state = workloads.desk_setup(lj, 0, run.OUT)
    small = [(label, g, chi) for label, g, chi in state["instances"] if g.q < 11]
    label, g, chi = small[0]
    state["instances"] = [(label, g, chi + 1), *small[1:]]
    res = workloads.PassResult(run.Tracer(vars(lj)))
    workloads.desk_pass(state, 0, res)
    assert (res.attempted, res.failed) == (len(small), 1)


def test_failing_cli_call_counts_as_failed():
    lj = run.import_lajoin()
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        state = workloads.cli_setup(lj, 0, Path(workdir))
        state["strata"] = [state["strata"][0], [("path-join-null", {"m": 1})]]
        res = workloads.PassResult(run.Tracer(vars(lj)))
        workloads.cli_pass(state, 0, res)
    # the second point has no N: gen raises, then verify and matrix find no file
    assert res.attempted == 6 and res.failed == 3


def test_exits_nonzero_without_the_program():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("out"))
        proc = benchmark("--workload", "solve-desk", "--seed", "1", "--seconds", "1", "--trace", "0",
                         cwd=Path(bare))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for test_name, test in list(globals().items()):
        if test_name.startswith("test_"):
            test()
            print(f"ok {test_name}")
