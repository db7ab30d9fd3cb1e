import contextlib
import copy
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import slow_cited_nodes
import lajoin
import lajoin.cli as cli
from lajoin.arrays import array_to_json, magic_rectangle
from lajoin.cli import MAX_OUTPUT_SIZE, build_parser, dump_json, dump_labeling, main
from lajoin.constructions import (
    ALL_FAMILIES,
    CitedCaseError,
    ConstructionResult,
    build_construction,
    sweep_points,
)
from lajoin.graphs import Graph, ParameterError, build_family
from lajoin.labelings import EdgeLabeling, verify_local_antimagic
from lajoin.solver import exact_chi_la


def run_cli(*argv):
    """Run the CLI in-process, returning (exit_code, captured by capsys)."""
    return main(list(argv))


def run_python(*args, env=()):
    # The child imports the same lajoin as this process, also when it was
    # found through pytest's ``pythonpath`` setting rather than PYTHONPATH.
    src = str(Path(lajoin.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True,
        text=True, encoding="utf-8", env=dict(os.environ, PYTHONPATH=path, **dict(env)),
    )


def run_subprocess(*argv, interpreter_flags=(), env=()):
    return run_python(*interpreter_flags, "-m", "lajoin.cli", *argv, env=env)


def test_importing_the_cli_loads_no_dataclass_machinery():
    # lajoin's value types are NamedTuples: dataclasses, and the inspect,
    # ast and tokenize it pulls in, would add about 7 ms to every command.
    # -S: no site hook may import them first.
    code = "import sys, lajoin.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    child = run_python("-S", "-c", code)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


def test_gen_then_verify_round_trip(tmp_path):
    prefix = tmp_path / "p6o5"
    assert run_cli("gen", "--family", "path-join-null", "--m", "3", "--N", "5",
                   "--matrix", "--out", str(prefix)) == 0
    labeling = prefix.with_suffix(".labeling.json")
    matrix = prefix.with_suffix(".matrix.csv")
    assert labeling.exists() and matrix.exists()
    data = json.loads(labeling.read_text())
    assert data["schema"] == "v1" and data["claimed_chi_la"] == 3
    assert run_cli("verify", str(labeling)) == 0
    rows = matrix.read_text().strip().splitlines()
    assert rows[0].startswith(",v1,v2,v3,v4,v5")
    assert rows[1] == "u1,11,8,29,15,18,5,86"
    assert rows[-1] == "induced_sum,123,123,123,123,123,,"


@pytest.mark.parametrize(
    "family,flags",
    [
        ("path-join-cycle", ["--m", "2", "--n", "2"]),
        ("complete-join-odd-cycle", ["--n", "1", "--m", "3"]),
        ("cycle-join-null-minus-edge", ["--m", "2", "--n", "2", "--which", "join-edge"]),
        ("generic-join-cycle", ["--m", "5"]),
        ("p7-o3", []),
    ],
)
def test_gen_verify_round_trip_across_families(tmp_path, family, flags):
    prefix = tmp_path / "out"
    assert run_cli("gen", "--family", family, *flags, "--out", str(prefix)) == 0
    assert run_cli("verify", str(prefix.with_suffix(".labeling.json"))) == 0


def test_verify_failure_names_pair(tmp_path):
    prefix = tmp_path / "bad"
    run_cli("gen", "--family", "cycle-join-null", "--m", "2", "--n", "2",
            "--out", str(prefix))
    path = prefix.with_suffix(".labeling.json")
    data = json.loads(path.read_text())
    # swap two labels to break adjacent distinctness but keep the bijection
    labs = {tuple(item["edge"]): item["label"] for item in data["labels"]}
    proc = None
    for a in list(labs):
        for b in list(labs):
            if a == b:
                continue
            swapped = dict(labs)
            swapped[a], swapped[b] = labs[b], labs[a]
            data["labels"] = [{"edge": list(e), "label": v} for e, v in sorted(swapped.items())]
            path.write_text(json.dumps(data))
            proc = run_subprocess("verify", str(path))
            if proc.returncode == 1:
                assert "adjacent pair" in proc.stderr
                return
    pytest.fail("no label swap broke the labeling")


@pytest.mark.parametrize("change", ["drop-label", "non-edge"])
def test_labels_off_the_edge_set_exit_2(tmp_path, capsys, change):
    # Neither command compares a sum: the file is rejected as it is read.
    doc = build_construction("p7-o3", {}).labeling.to_json()
    if change == "drop-label":
        doc["labels"].pop()
    else:
        doc["labels"].append({"edge": [1, 99], "label": len(doc["labels"]) + 1})
    path = tmp_path / "off.labeling.json"
    path.write_text(json.dumps(doc))
    for command in (["verify"], ["matrix", "--input"]):
        assert run_cli(*command, str(path)) == 2, command
        assert capsys.readouterr() == ("", "error: labels must be defined on exactly the edge set\n")


@pytest.mark.parametrize("bound,verdict", [
    (None, None), (3, "tight"), (2, "above-lower-bound"), (4, "below-lower-bound"),
])
def test_verify_reports_against_a_lower_bound(tmp_path, capsys, bound, verdict):
    prefix = tmp_path / "p"
    assert run_cli("gen", "--family", "path-join-null", "--m", "2", "--N", "3",
                   "--out", str(prefix)) == 0
    path = str(prefix.with_suffix(".labeling.json"))
    claimed = json.loads(Path(path).read_text())["claimed_colors"]
    flags = [] if bound is None else ["--lower-bound", str(bound)]
    assert run_cli("verify", path, *flags, "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "schema": "v1", "bijection_ok": True, "proper": True, "color_count": 3,
        "color_classes": data["color_classes"], "lower_bound": bound, "verdict": verdict,
        "failure": None,
    }
    assert [int(s) for s in data["color_classes"]] == claimed
    assert run_cli("verify", path, *flags) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["bijection: ok", "adjacent sums distinct: ok"]
    assert lines[3:] == ([] if bound is None else [f"against lower bound {bound}: {verdict}"])


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_verify_lower_bound_below_1_exits_2(tmp_path, capsys, bound):
    prefix = tmp_path / "p"
    assert run_cli("gen", "--family", "path-join-null", "--m", "2", "--N", "3",
                   "--out", str(prefix)) == 0
    path = str(prefix.with_suffix(".labeling.json"))
    for flags in ([], ["--format", "json"]):
        assert run_cli("verify", path, "--lower-bound", bound, *flags) == 2
        assert capsys.readouterr() == ("", "error: lower bound must be at least 1\n")


def test_usage_errors_exit_2(tmp_path):
    proc = run_subprocess("gen", "--family", "nonsense")
    assert proc.returncode == 2
    proc = run_subprocess("gen", "--family", "path-join-null", "--m", "0", "--N", "2")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    proc = run_subprocess("verify", str(tmp_path / "missing.json"))
    assert proc.returncode == 2


def test_gen_outputs_are_byte_stable(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for prefix in (a, b):
        run_cli("gen", "--family", "cycle-join-cycle", "--m", "2", "--n", "2",
                "--matrix", "--out", str(prefix))
    assert a.with_suffix(".labeling.json").read_bytes() == b.with_suffix(".labeling.json").read_bytes()
    assert a.with_suffix(".matrix.csv").read_bytes() == b.with_suffix(".matrix.csv").read_bytes()


def test_file_io_is_utf8_under_an_ascii_locale(tmp_path):
    # Under the C locale without UTF-8 mode the default text encoding is
    # ASCII; every file the CLI reads or writes must name its encoding, and
    # a warning about a default one fails the child.
    ascii_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    strict = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")

    def run(*argv):
        proc = run_subprocess(*argv, interpreter_flags=strict, env=ascii_locale)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        return proc

    prefix = tmp_path / "p"
    run("gen", "--family", "path-join-cycle", "--m", "2", "--n", "3", "--matrix", "--out", str(prefix))
    labeling = tmp_path / "p.labeling.json"
    doc = json.loads(labeling.read_text(encoding="utf-8"))
    doc["family"] = "Kürzel"
    doc["graph"]["family"] = ["Kürzel", ["ключ", 3]]
    labeling.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    run("verify", str(labeling), "--out", str(tmp_path / "verify.txt"))
    assert (tmp_path / "verify.txt").read_text(encoding="utf-8").startswith("bijection: ok\n")
    run("matrix", "--input", str(labeling), "--format", "csv", "--out", str(tmp_path / "m.csv"))
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "p.matrix.csv").read_bytes()
    run("arrays", "--kind", "rectangle", "--rows", "3", "--cols", "5", "--format", "json",
        "--out", str(tmp_path / "a.json"))
    expected = dump_json(array_to_json(magic_rectangle(3, 5)))
    assert (tmp_path / "a.json").read_text(encoding="utf-8") == expected


def test_gen_cited_case_routes_to_solver(tmp_path):
    prefix = tmp_path / "fan"
    proc = run_subprocess("gen", "--family", "path-join-null", "--m", "2", "--N", "1",
                          "--out", str(prefix))
    assert proc.returncode == 0
    assert proc.stderr == "solver route: chi_la=4\n"
    data = json.loads(prefix.with_suffix(".labeling.json").read_text())
    assert data["claimed_chi_la"] == 4
    assert run_cli("verify", str(prefix.with_suffix(".labeling.json"))) == 0


def test_gen_cited_case_timeout_exits_2_without_output(tmp_path):
    # a best-so-far count would go out as the cited point's claimed value
    assert slow_cited_nodes() > 4096
    prefix = tmp_path / "wheel"
    proc = run_subprocess("gen", "--family", "cycle-join-null", "--m", "3", "--n", "1",
                          "--budget", "1e-6", "--out", str(prefix))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "ran out of --budget before settling the cited value" in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("family,flags,params", [
    ("cycle-join-null-minus-edge", ["--m", "2", "--n", "2"], {"m": 2, "n": 2}),
    ("cycle-join-null-minus-edge", ["--m", "2", "--n", "2", "--which", "join-edge"],
     {"m": 2, "n": 2, "which": "join-edge"}),
    ("path-join-complete", ["--m", "2", "--r", "3"], {"m": 2, "r": 3}),
    ("path-join-null", ["--m", "2", "--N", "1"], {"m": 2, "N": 1}),
    ("p7-o3", [], {}),
], ids=["default-which", "explicit-which", "rerouted", "cited", "no-parameters"])
def test_gen_params_echo_the_flags_given(capsys, family, flags, params):
    assert run_cli("gen", "--family", family, *flags) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["family"] == family and data["params"] == params


@pytest.mark.parametrize("argv,message", [
    (["gen", "--family", "path-join-null", "--m", "1", "--N", "6"],
     "P_2 v O_N joins are covered by cited work; use the exact solver; "
     "graph too large for the solver route (q=13)"),
    (["solve", "--input", "EDGELESS"], "the graph has no edges to label"),
], ids=["cited-past-max-edges", "edgeless-input"])
def test_solver_refusals_exit_2(tmp_path, argv, message):
    path = tmp_path / "edgeless.json"
    path.write_text(dump_json(build_family("null", 3).to_json()))
    proc = run_subprocess(*[str(path) if a == "EDGELESS" else a for a in argv])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("command,kind", [("solve", "GRAPH"), ("matrix", "LABELING")])
def test_input_and_family_are_one_source(tmp_path, capsys, command, kind):
    path = tmp_path / "input.json"
    if command == "solve":
        path.write_text(dump_json(build_family("cycle", 3).to_json()))
    else:
        path.write_text(json.dumps(build_construction("p7-o3", {}).labeling.to_json()))
    assert run_cli(command, "--input", str(path), "--out", str(tmp_path / "out")) == 0
    capsys.readouterr()
    for flags in (["--family", "p7-o3"], ["--family", "p7-o3", "--m", "9"], ["--m", "9"],
                  ["--which", "join-edge"]):
        assert run_cli(command, "--input", str(path), *flags) == 2, flags
        assert capsys.readouterr() == (
            "", f"error: {command} takes --input or --family with parameters, not both\n"
        )
    for flags in ([], ["--m", "9"]):
        assert run_cli(command, *flags) == 2, flags
        assert capsys.readouterr() == (
            "", f"error: {command} needs --input {kind}.json or --family with parameters\n"
        )


def test_solve_family(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli("solve", "--family", "path-join-null", "--m", "2", "--N", "1",
                   "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["chi_la"] == 4 and data["exact"] is True
    assert data["witness"]["labels"]


@pytest.mark.parametrize("family,params,q", [
    ("generic-join-null", {"n": 3}, 16),  # the parts' orders differ in parity
    ("cycle-join-cycle", {"m": 3, "n": 6}, 83),  # the scheme's colour collision
], ids=["parity", "collision"])
def test_solve_family_at_a_point_the_generator_refuses(capsys, family, params, q):
    # solve takes the point's graph from the registry, not from a labeling
    with pytest.raises(ParameterError):
        build_construction(family, params)
    flags = [x for key, value in params.items() for x in (f"--{key}", str(value))]
    assert run_cli("solve", "--family", family, *flags, "--max-edges", str(q), "--budget", "0.2") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == "v1" and len(data["witness"]["labels"]) == q


def test_solve_graph_input(tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(dump_json(build_family("cycle", 3).to_json()))
    out = tmp_path / "r.json"
    assert run_cli("solve", "--input", str(path), "--out", str(out)) == 0
    assert json.loads(out.read_text())["chi_la"] == 3


def test_matrix_pretty(capsys):
    assert run_cli("matrix", "--family", "cycle-join-cycle", "--m", "3", "--n", "3") == 0
    out = capsys.readouterr().out
    assert "own" in out and "209" in out and "206" in out


def test_sweep_ranges(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--family", "cycle-join-cycle", "--m", "2..3", "--n", "2..3",
                   "--format", "csv", "--out", str(out))
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 5  # header + four parameter points
    assert all(("matched" in r) or ("upper-bound-only" in r) for r in rows[1:])


def test_sweep_includes_out_of_range_rows(tmp_path):
    out = tmp_path / "sweep.txt"
    code = run_cli("sweep", "--family", "cycle-join-cycle", "--m", "3", "--n", "6",
                   "--out", str(out))
    assert code == 0
    assert "out-of-range" in out.read_text()


def test_arrays_csv(capsys):
    assert run_cli("arrays", "--kind", "nearly-rectangle", "--rows", "2", "--cols", "3") == 0
    out = capsys.readouterr().out
    assert out == "1,5,4\n6,2,3\n"
    assert run_cli("arrays", "--kind", "square", "--order", "3", "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["col_constant"] == 15


def test_arrays_usage_error():
    assert run_cli("arrays", "--kind", "rectangle") == 2


@pytest.mark.parametrize("argv,message", [
    (["--kind", "square", "--order", "0"], "siamese method needs an odd order >= 3, got 0"),
    (["--kind", "rectangle", "--rows", "0", "--cols", "3"],
     "magic rectangle needs both sides >= 2, got (0,3)"),
    (["--kind", "nearly-rectangle", "--rows", "2", "--cols", "0"],
     "nearly magic rectangle needs an odd number of columns >= 3, got 0"),
], ids=["square", "rectangle", "nearly-rectangle"])
def test_arrays_zero_size_reaches_the_range_check(capsys, argv, message):
    assert run_cli("arrays", *argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["arrays", "--kind", "square"], "square needs --order"),
    (["verify", "MISSING"], "cannot access MISSING: No such file or directory"),
], ids=["square-without-order", "verify-missing-file"])
def test_missing_input_exits_2_with_one_line(tmp_path, capsys, argv, message):
    missing = str(tmp_path / "missing.json")
    assert run_cli(*[missing if a == "MISSING" else a for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message.replace('MISSING', missing)}\n")


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_nonpositive_budget_exits_2(budget):
    for argv in (
        ["solve", "--family", "path-join-null", "--m", "1", "--N", "2"],
        ["gen", "--family", "cycle-join-null", "--m", "3", "--n", "3"],
        ["sweep", "--family", "path-join-null", "--m", "1", "--N", "2"],
    ):
        proc = run_subprocess(*argv, "--budget", budget)
        assert proc.returncode == 2, argv
        assert proc.stderr.count("\n") == 1 and "budget" in proc.stderr


def test_zero_target_exits_2():
    proc = run_subprocess("solve", "--family", "path-join-null", "--m", "2", "--N", "1",
                          "--target", "0")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: target colors must be at least 1\n"


def test_solve_target_at_the_optimum_above_the_bound_is_not_exact(capsys):
    # chi_la(P_4 v O_1) = 4, one above its chromatic bound of 3: stopping
    # at the first 4-color labeling proves no optimum
    assert run_cli("solve", "--family", "path-join-null", "--m", "2", "--N", "1",
                   "--target", "4") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["chi_la"] == 4 and data["exact"] is False


@pytest.mark.parametrize("command", [["verify"], ["matrix", "--input"], ["solve", "--input"]])
def test_malformed_json_exits_2(tmp_path, command):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "v1", ')
    proc = run_subprocess(*command, str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_malformed_sweep_range_exits_2():
    proc = run_subprocess("sweep", "--family", "path-join-null", "--m", "x..3", "--N", "1")
    assert proc.returncode == 2
    assert proc.stderr == "error: --m takes an integer or a range LO..HI, got 'x..3'\n"


@pytest.mark.parametrize("text", ["5..2", "3..2"])
def test_empty_sweep_range_exits_2(text):
    proc = run_subprocess("sweep", "--family", "path-join-null", "--m", text, "--N", "1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: --m takes a range LO..HI with LO <= HI, got '{text}'\n"


@pytest.mark.parametrize("flags,text", [
    (["--m", "2..20", "--N=-20..-5"], "--N takes values >= 1, got '-20..-5'"),
    (["--m", "2", "--N", "0..3"], "--N takes values >= 1, got '0..3'"),
    (["--m=-1000000..2", "--N", "2"], "--m takes values >= 1, got '-1000000..2'"),
])
def test_sweep_range_below_one_exits_2(capsys, flags, text):
    # No family takes a value below 1, and below 1 the last point of a
    # range need not hold the most edges, so the budget check could pass a
    # huge range.
    assert run_cli("sweep", "--family", "path-join-null", *flags) == 2
    assert capsys.readouterr() == ("", f"error: {text}\n")


@pytest.mark.parametrize("budget", ["26", "-1"])
def test_sweep_without_points_exits_2(budget):
    # p7-o3 has one point, with 27 edges
    proc = run_subprocess("sweep", "--family", "p7-o3", "--max-total-edges", budget)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        f"error: family p7-o3 has no sweep point within --max-total-edges {budget}\n"
    )


def test_sweep_range_past_the_edge_budget_exits_2(capsys):
    # The range is never listed: its last point is checked first.
    assert run_cli("sweep", "--family", "cycle-join-cycle", "--m", "2..1000000000000",
                   "--n", "2") == 2
    assert capsys.readouterr() == ("", (
        "error: cycle-join-cycle at --m 1000000000000 --n 2 has 8000000000003 edges, "
        "more than --max-total-edges 400\n"
    ))
    # 4*4*3 + 2*3 - 1 = 53 edges: within a budget of 53, not of 52.
    flags = ["sweep", "--family", "cycle-join-cycle", "--m", "2..4", "--n", "2..3"]
    assert run_cli(*flags, "--max-total-edges", "53") == 0
    capsys.readouterr()
    assert run_cli(*flags, "--max-total-edges", "52") == 2
    assert capsys.readouterr().err == (
        "error: cycle-join-cycle at --m 4 --n 3 has 53 edges, more than --max-total-edges 52\n"
    )


def test_sweep_points_vary_the_first_flag_slowest(tmp_path):
    out = tmp_path / "sweep.json"
    assert run_cli("sweep", "--family", "cycle-join-null-minus-edge", "--m", "2..3", "--n", "2..3",
                   "--which", "join-edge", "--format", "json", "--out", str(out)) == 0
    params = [row["params"] for row in json.loads(out.read_text())]
    assert [list(p.items()) for p in params] == [
        [("m", m), ("n", n), ("which", "join-edge")] for m in (2, 3) for n in (2, 3)
    ]


def test_sweep_which_alone_narrows_the_family_sweep(capsys):
    # --which with no range flag keeps the plain sweep's rows for that edge,
    # in the same order.
    flags = ("sweep", "--family", "cycle-join-null-minus-edge", "--max-total-edges", "60")
    assert run_cli(*flags) == 0
    plain = [line for line in capsys.readouterr().out.splitlines() if "which=join-edge" in line]
    assert run_cli(*flags, "--which", "join-edge") == 0
    assert capsys.readouterr().out.splitlines() == plain
    assert len(plain) == 15
    assert run_cli("sweep", "--family", "cycle-join-null", "--which", "join-edge") == 2
    assert capsys.readouterr().err == "error: cycle-join-null does not take parameter which\n"


def test_sweep_json_is_pinned(capsys):
    # sha256 per family of the whole sweep document, taken before the
    # verdict table was folded into one path in confirm_theorem. Every
    # point up to 11 edges goes through the exact search, the rest through
    # the chromatic bound or the cited value.
    expected = {
        "path-join-null": "afe309c6afc813cc4a0fa03a793bd1aab40b73eecb3e98eb37b223b2e7667927",
        "p7-o3": "d9fbec74669ad581ca92d2e16de02292fcc262c5d5feafb5a819b15fa2406292",
        "path-join-cycle": "0f625269930627fb417a9eae449baa7b3eba246851012fd7bec62ae7fa354b79",
        "path-join-complete": "511ccc9f96e2ce7f41af422c9f4e117d743374f5c1b0f2e0015d123b8efcd84c",
        "cycle-join-null": "3f0f7be4e82786f16a3ae50a74cb65a70749ca77676660b673a0e0d76e6275d2",
        "odd-cycle-join-even-null": "ddce9a27038a13a93bc2340408b1651b5f3876d3727552a81bb6f16d2673beb4",
        "cycle-join-null-minus-edge": "0e1421d5f6786ce7d6da0328a4e9e5f3f14598738094635f9c408583805f4474",
        "cycle-join-cycle": "536156131f70779971d81879298548ca59f77e2ddd423c29ca2c4011bfea8b73",
        "cycle-join-cycle-minus-edge": "f2d80b8ff83aaf2889259be719e903f76035724ae9047a2dba18a80908712e71",
        "cycle-join-complete": "cf91ad9616bc7465c52eaa73084adafe9f038019fbe3821c5c241000a9b09fb9",
        "complete-join-odd-cycle": "0cee4ffbe6d30b3c09ba9c064811be5248e2e1fcd7f969d8fadeae884bd382b6",
        "generic-join-null": "24af8c0e35eadc5d8f73c00cde4345a9a5269188e7e743c406be84272a03bffc",
        "generic-join-complete-bipartite": "3a0ac8d197a292ddd351146678015aaff7f02a0b118bd109836a8342271e7f15",
        "generic-join-cycle": "9896bf0a89b52a4e5acc53491cc6584e2656f802bb2e6517f723238bc00463d0",
    }
    assert set(expected) == set(ALL_FAMILIES)
    for family, digest in expected.items():
        code = run_cli("sweep", "--family", family, "--format", "json",
                       "--max-total-edges", "150", "--max-edges", "11")
        out = capsys.readouterr().out
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, family


def test_missing_family_parameter_exits_2():
    proc = run_subprocess("gen", "--family", "path-join-null", "--m", "3")
    assert proc.returncode == 2
    assert proc.stderr == "error: path-join-null needs parameter N\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["gen", "--family", "p7-o3", "--m", "3"], "p7-o3 does not take parameter m"),
        (["gen", "--family", "cycle-join-null", "--m", "2", "--n", "2", "--r", "3"],
         "cycle-join-null does not take parameter r"),
        (["matrix", "--family", "path-join-null", "--m", "2", "--n", "3"],
         "path-join-null does not take parameter n"),
        (["gen", "--family", "path-join-null", "--m", "3"], "path-join-null needs parameter N"),
        (["solve", "--family", "complete-join-odd-cycle", "--m", "2"],
         "complete-join-odd-cycle needs parameter n"),
        (["sweep", "--family", "p7-o3", "--m", "2..3"], "p7-o3 does not take parameter m"),
        (["sweep", "--family", "path-join-null", "--m", "2..3"], "path-join-null needs parameter N"),
        (["sweep", "--family", "cycle-join-null", "--m", "2", "--n", "2", "--which", "join-edge"],
         "cycle-join-null does not take parameter which"),
        # only the even-cycle edge has a claimed value, so which is no parameter here
        (["solve", "--family", "cycle-join-cycle-minus-edge", "--m", "2", "--n", "2", "--which", "join-edge",
          "--max-edges", "20"],
         "cycle-join-cycle-minus-edge does not take parameter which"),
    ],
)
def test_parameter_a_family_does_not_take_or_lacks_exits_2(capsys, argv, message):
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "nope"],
    ["gen", "--family", "p7-o3", "--m", "x"],
    ["gen"],
    ["sweep"],
    [],
], ids=["unknown-family", "non-integer", "gen-no-family", "sweep-no-family", "no-subcommand"])
def test_parser_errors_are_one_error_line(capsys, argv):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_gen_matrix_on_cited_points_is_pinned(capsys):
    # sha256 of ``gen --matrix`` stdout at every cited point within the
    # solver's default 12 edges, taken before the complete families'
    # r = 1 points were rerouted through the null joins.
    expected = {
        "path-join-null --m 1 --N 1": "73393d1d679e889fb1e3e90d2bdb7f9c3189bed23b6d0564447d191f34a82537",
        "path-join-null --m 1 --N 2": "d8b220c7afd3fe31d1b073e313901c0636f5b035b682616957ac7407d0d356fd",
        "path-join-null --m 1 --N 3": "acb52623a67ec86b311ca7e78397b9c91ab197249a5389c1868b2d1b43366652",
        "path-join-null --m 1 --N 4": "fbd5d1cfdad5d46037616d1de10748f12b8b4714478773a4a520567c84f6d7db",
        "path-join-null --m 1 --N 5": "0f6710daf59797a8325cec53d6cbb7c10add01f27395a906165c96591d56eeac",
        "path-join-null --m 2 --N 1": "4e87b66818bded9472631b2dadd09f39825c465ca26ba033a041f70a5379f52e",
        "path-join-null --m 3 --N 1": "f96843a3db4cb1e6818be4c251bd3ed71db11f80785543f88a7d134a323e657a",
        "path-join-complete --m 2 --r 1": "cf3bfdbbf5333398343d7275c7bff87789da09a28db3d3587b12ea5b59da95e3",
        "path-join-complete --m 3 --r 1": "1210819d4dc4e11c3fadc24b3701d5236cd93822a63bc6a882f885c8df9803c9",
        "cycle-join-null --m 2 --n 1": "d16741e623a339c1afb8c9fd5ce13967ac0b3bd1ca6b60f42fa6122f28076f59",
        "cycle-join-null --m 3 --n 1": "45d316db3e531174a90227c9f3049d0b55f032bf420883c2ee35eed25c15bc4c",
        "cycle-join-complete --m 2 --r 1": "1742bc015ea8dc9a94c165f02dca79bef413503f33b92525d4494f40a3f2fbff",
        "cycle-join-complete --m 3 --r 1": "2340f62fb4bd424dc7cf83e9573fa80a736eba9bddbb50c6c2c75f0ac17b42db",
    }
    for point, digest in expected.items():
        assert run_cli("gen", "--family", *point.split(), "--matrix") == 0, point
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest, point
        assert captured.err.startswith("solver route: chi_la="), point


def test_gen_json_on_the_sweep_is_pinned(capsys):
    # sha256 per family of ``gen`` stdout, the labeling JSON, at every
    # budget-150 sweep point in sweep order, taken before lists of
    # same-shape records were written column by column.
    expected = {
        "path-join-null": "ccca3bd482b4d921f335a232b076e9db9fa062005d257a352c8d5c0c9a6e52ee",
        "p7-o3": "e10ad13a7332d5c3b8122fd3d90a00aeb928dddd1005ba0b83de249c1bf24e39",
        "path-join-cycle": "69fb3df826305fa848e3d3a42d7692256c0287e49e47e7bbe66c92d308194948",
        "path-join-complete": "1b0c8722ee25a88184ddced71927b6845ca14a5c16314c6fd40c6efa30d751e6",
        "cycle-join-null": "38b63392c861609b3ea3e9275a15d0291932836713490ee0abb134299309277d",
        "odd-cycle-join-even-null": "9e0fc42b7f433337697cc9755470da29ae8ef26eb3a27bd02db819731aa280d1",
        "cycle-join-null-minus-edge": "33afe93284baf646a28d02b24615458835076f27cfdec2040d2c18bb71774720",
        "cycle-join-cycle": "42bfda0420db3513dc677ee440e2a18c636b93d74508b9d4e337ee84290ea630",
        "cycle-join-cycle-minus-edge": "2f681d18ef0d9405ed8ea2b32ce046d8c6664a11f101b166de425e3e3c6368a6",
        "cycle-join-complete": "a73e887ad09034714a006add20a7811c37991860357c66b63c359d4db48e149b",
        "complete-join-odd-cycle": "ba38c0c13161131e0edf2acf293df97ea545023a65170a48d94fff1eac34a0e3",
        "generic-join-null": "52fcfe71bfe6137081910d009293697a80fa9fe43a1caa35459b591ee55f5e68",
        "generic-join-complete-bipartite": "bc7144c2ecc5b3c5bcefd5e46c12a6eb842ec7a508642345c1270b631899c1e2",
        "generic-join-cycle": "876a7dae50aa92d2a5dbb476300ef168b2745006ade89399c36ebca70d6c60e7",
    }
    assert set(expected) == set(ALL_FAMILIES)
    for family, digest in expected.items():
        out = hashlib.sha256()
        for params in sweep_points(family, 150):
            flags = [x for key, value in params.items() for x in (f"--{key}", str(value))]
            assert run_cli("gen", "--family", family, *flags) == 0, (family, params)
            out.update(capsys.readouterr().out.encode())
        assert out.hexdigest() == digest, family


@pytest.mark.parametrize("family", [["cycle", "x"], [], ["complete", 9], ["path", 17]])
def test_solve_input_ignores_the_files_family_descriptor(tmp_path, family):
    # 17 vertices: past the exact chromatic number's 16. The lower bound is
    # computed from the edges, so the descriptor changes only the label the
    # witness graph carries.
    doc = {
        "schema": "v1",
        "vertices": [{"id": v, "role": f"u{v}"} for v in range(1, 18)],
        "edges": [[1, 2], [2, 3]],
    }
    reports = []
    for descriptor in (None, family):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(dict(doc, family=descriptor)))
        out = tmp_path / "r.json"
        assert run_cli("solve", "--input", str(path), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["witness"]["graph"].pop("family") == descriptor
        del report["elapsed"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["chi_la"] == 4 and reports[0]["exact"] is True


def test_bool_label_is_rejected(tmp_path):
    prefix = tmp_path / "p"
    assert run_cli("gen", "--family", "path-join-null", "--m", "2", "--N", "3",
                   "--out", str(prefix)) == 0
    path = prefix.with_suffix(".labeling.json")
    data = json.loads(path.read_text())
    for item in data["labels"]:
        if item["label"] == 1:
            item["label"] = True
    path.write_text(json.dumps(data))
    proc = run_subprocess("verify", str(path))
    assert proc.returncode == 2 and "not an integer" in proc.stderr


def test_sweep_timeout_is_inconclusive_not_mismatch(tmp_path):
    assert slow_cited_nodes() > 4096
    out = tmp_path / "sweep.txt"
    code = run_cli("sweep", "--family", "cycle-join-null", "--m", "3", "--n", "1",
                   "--budget", "1e-6", "--out", str(out))
    assert code == 0
    assert "inconclusive" in out.read_text()


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_shared_parser_does_not_leak_flags(tmp_path, monkeypatch):
    seen = []
    search_config = cli._search_config

    def hook(args, *rest):
        seen.append(args)
        return search_config(args, *rest)

    monkeypatch.setattr(cli, "_search_config", hook)
    flags = ["gen", "--family", "path-join-null", "--m", "2", "--N", "3"]
    assert run_cli(*flags, "--budget", "5", "--matrix", "--out", str(tmp_path / "a")) == 0
    assert run_cli(*flags, "--out", str(tmp_path / "b")) == 0
    assert [a.budget for a in seen] == [5.0, 60.0]
    assert [a.matrix for a in seen] == [True, False]


def test_empty_graph_file_exits_2(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    proc = run_subprocess("solve", "--input", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_bad_role_exits_2_for_verify_and_matrix(tmp_path):
    prefix = tmp_path / "p"
    assert run_cli("gen", "--family", "path-join-null", "--m", "3", "--N", "2",
                   "--out", str(prefix)) == 0
    path = prefix.with_suffix(".labeling.json")
    data = json.loads(path.read_text())
    data["graph"]["vertices"][0]["role"] = "ux"
    path.write_text(json.dumps(data))
    for command in (["verify"], ["matrix", "--input"]):
        proc = run_subprocess(*command, str(path))
        assert proc.returncode == 2, command
        assert proc.stderr.count("\n") == 1 and "'ux'" in proc.stderr


# -- malformed input fuzz ----------------------------------------------------

# P_2 v C_3: own edges on both sides, join edges between them.
_LABELING = build_construction("path-join-cycle", {"m": 2, "n": 3}).labeling.to_json()
_GRAPH = _LABELING["graph"]
_ROLE = re.compile(r"[uv][1-9][0-9]{0,8}")

# The simplest value of each JSON kind. Empty containers and integral
# floats are what slips past a loose check: an empty "labels" dict iterates
# like an empty list, and 1.0 == 1 in Python.
_SIMPLEST = {"int": 0, "float": 1.0, "bool": True, "str": "", "null": None, "list": [], "dict": {}}
_VALUES = {
    "int": st.integers(-3, 20),
    "float": st.floats(),
    "bool": st.booleans(),
    "str": st.text(max_size=4),
    "null": st.none(),
    "list": st.lists(st.integers(-3, 20), max_size=3),
    "dict": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
_BAD_ROLES = st.one_of(
    st.sampled_from(["", "u", "v", "u0", "v01", "ux", "w1", "U1", "u1 ", "u-1", "u1_0", "u\u0661",
                     "u1" + "0" * 9, "v1" + "0" * 4400]),
    st.text(max_size=5),
).filter(lambda r: not _ROLE.fullmatch(r))

# (path, kinds a valid value there has); "i" is any index into the list
# before it. Every slot is required except "family", which may be left out
# but, when present, must be null or a list. A graph's "schema" is not read.
_GRAPH_SLOTS = [
    (("family",), ("list", "null")),
    (("vertices",), ("list",)),
    (("vertices", "i"), ("dict",)),
    (("vertices", "i", "id"), ("int",)),
    (("vertices", "i", "role"), ("str",)),
    (("edges",), ("list",)),
    (("edges", "i"), ("list",)),
    (("edges", "i", "i"), ("int",)),
]
_LABELING_SLOTS = [
    (("schema",), ()),  # only the string "v1" is accepted
    (("graph",), ("dict",)),
    (("labels",), ("list",)),
    (("labels", "i"), ("dict",)),
    (("labels", "i", "edge"), ("list",)),
    (("labels", "i", "edge", "i"), ("int",)),
    (("labels", "i", "label"), ("int",)),
] + [(("graph", *path), kinds) for path, kinds in _GRAPH_SLOTS]


def _locate(doc, path, index):
    """The container holding the slot at ``path``, and the slot's key.

    ``index(n)`` picks the position for each "i" in a list of length n.
    """
    parent, node = None, doc
    for step in path:
        key = index(len(node)) if step == "i" else step
        parent, node = node, node[key]
    return parent, key


@st.composite
def malformed_documents(draw):
    """A labeling or graph document with one structural fault."""
    doc = copy.deepcopy(draw(st.sampled_from([_LABELING, _GRAPH])))
    slots = _LABELING_SLOTS if "labels" in doc else _GRAPH_SLOTS
    vertices = doc["graph"]["vertices"] if "graph" in doc else doc["vertices"]
    faults = ["top-level", "drop-key", "wrong-type", "bad-role", "duplicate-role"]
    if "labels" in doc:
        faults.append("inexact-label")
    fault = draw(st.sampled_from(faults))

    def index(n):
        return draw(st.integers(0, n - 1))

    if fault == "top-level":
        return draw(st.one_of(*(v for k, v in _VALUES.items() if k != "dict"),
                              st.lists(st.just(doc), max_size=2)))
    if fault == "drop-key":
        path = draw(st.sampled_from(
            [p for p, _ in slots if p[-1] not in ("i", "family")]
        ))
        parent, key = _locate(doc, path, index)
        del parent[key]
    elif fault == "wrong-type":
        path, kinds = draw(st.sampled_from(slots))
        value = draw(st.one_of(*(v for k, v in _VALUES.items() if k not in kinds)))
        parent, key = _locate(doc, path, index)
        parent[key] = "v2" if value == "v1" else value
    elif fault == "bad-role":
        draw(st.sampled_from(vertices))["role"] = draw(_BAD_ROLES)
    elif fault == "duplicate-role":
        i, j = draw(st.lists(st.integers(0, len(vertices) - 1), min_size=2, max_size=2, unique=True))
        vertices[i]["role"] = vertices[j]["role"]
    else:
        draw(st.sampled_from(doc["labels"]))["label"] = draw(
            st.one_of(st.booleans(), st.floats(allow_nan=True, allow_infinity=True))
        )
    return doc


def _assert_rejected(tmp_path, doc, text=None):
    """Every input command exits 2 with one line on ``doc`` (or raw ``text``)."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc) if text is None else text)
    for command in (["verify"], ["matrix", "--input"], ["solve", "--input"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, str(path)])
        assert code == 2, (command, doc)
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, err.getvalue()


_DROP = object()


def test_every_slot_fault_exits_2(tmp_path):
    # Each required key dropped, and each slot (first index) given the
    # simplest value of every kind it must not have.
    for base, slots in ((_LABELING, _LABELING_SLOTS), (_GRAPH, _GRAPH_SLOTS)):
        for path, kinds in slots:
            values = [v for k, v in _SIMPLEST.items() if k not in kinds]
            if path[-1] not in ("i", "family"):
                values.append(_DROP)
            for value in values:
                doc = copy.deepcopy(base)
                parent, key = _locate(doc, path, lambda n: 0)
                if value is _DROP:
                    del parent[key]
                else:
                    parent[key] = value
                _assert_rejected(tmp_path, doc)


def _deep_family(depth):
    graph = json.dumps(_GRAPH)
    return graph[:-1] + ', "family": ' + "[" * depth + "]" * depth + "}"


@pytest.mark.parametrize(
    "text",
    [
        # Integer literals past Python's 4300-digit conversion limit make
        # json.loads raise a plain ValueError, not JSONDecodeError.
        json.dumps(_GRAPH).replace('"id": 1,', '"id": 1' + "0" * 4400 + ",", 1),
        json.dumps(_LABELING).replace('"label": ', '"label": 1' + "0" * 4400, 1),
        # Nested past the recursion limit: json.loads raises RecursionError.
        _deep_family(100_000),
        "[" * 100_000 + "]" * 100_000,
        # Parses, but nests deeper than any family descriptor may.
        _deep_family(600),
        # A role index that int() refuses: it would pass verify and then
        # crash matrix export, which sorts by the index.
        json.dumps(_LABELING).replace('"role": "u1"', '"role": "u1' + "0" * 4400 + '"', 1),
    ],
    ids=["id-4401-digits", "label-4401-digits", "family-100000-deep", "array-100000-deep",
         "family-600-deep", "role-4401-digits"],
)
def test_oversized_json_exits_2(tmp_path, text):
    _assert_rejected(tmp_path, None, text)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=malformed_documents())
def test_malformed_input_fuzz_exits_2(tmp_path, doc):
    _assert_rejected(tmp_path, doc)


# -- the JSON writer ---------------------------------------------------------

_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300)
@given(tree=_JSON_TREES)
@example(tree={"x": [float("nan"), float("inf"), float("-inf"), 0.1]})  # the derandomized draws hold none
def test_dump_json_matches_json_dumps(tree):
    # json.dumps is the reference: non-ASCII text, NaN and the infinities,
    # bools beside ints and empty containers at every depth included.
    assert dump_json(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


def test_dump_json_matches_json_dumps_on_lajoin_documents():
    res = build_construction("path-join-complete", {"m": 3, "r": 4})
    payload = res.labeling.to_json()
    payload.update(family="path-join-complete", params={"m": 3, "r": 4},
                   claimed_chi_la=res.claimed_chi_la, claimed_colors=sorted(res.claimed_colors))
    docs = [
        payload,
        verify_local_antimagic(res.graph, res.labeling, lower_bound=3).to_json(),
        res.graph.to_json(),
        array_to_json(magic_rectangle(3, 5)),
        exact_chi_la(build_family("cycle", 4)).to_json(),
        (1, [2, (3, True)], ()),  # tuples are written as lists
    ]
    for doc in docs:
        assert dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_dump_json_writes_an_int_key_as_a_string():
    # as json.dumps does; no lajoin document has a key that is not a string
    assert dump_json({1: 2}) == '{\n  "1": 2\n}\n'


def test_dump_json_rejects_mixed_keys():
    # sorting an int key beside a str key raises
    with pytest.raises(TypeError):
        dump_json([{"b": 1, 2: 3}])


# -- gen's labeling document -------------------------------------------------


def gen_payload(res, family, params):
    """gen's labeling document as a dict: ``to_json()`` plus the claim fields."""
    payload = res.labeling.to_json()
    payload.update(family=family, params=params, claimed_chi_la=res.claimed_chi_la,
                   claimed_colors=sorted(res.claimed_colors))
    return payload


def test_dump_labeling_is_dump_json_on_the_sweep(budget_400_sweep):
    count = 0
    for family, params, res in budget_400_sweep.points:
        assert dump_labeling(res, family, params) == dump_json(gen_payload(res, family, params)), \
            (family, params)
        count += 1
    assert count == 3395


@pytest.mark.parametrize("family,params", [
    # a nested family descriptor: ("minus-edge", ("join", ...), (a, b))
    ("cycle-join-null-minus-edge", {"m": 2, "n": 3, "which": "join-edge"}),
    ("p7-o3", {}),  # "params": {}
])
def test_gen_writes_dump_json_of_the_payload(capsys, family, params):
    flags = [x for key, value in params.items() for x in (f"--{key}", str(value))]
    assert run_cli("gen", "--family", family, *flags) == 0
    res = build_construction(family, params)
    assert capsys.readouterr().out == dump_json(gen_payload(res, family, params))


def test_gen_on_the_solver_route_writes_dump_json_of_the_payload(capsys):
    params = {"m": 1, "N": 2}
    assert run_cli("gen", "--family", "path-join-null", "--m", "1", "--N", "2") == 0
    out = capsys.readouterr().out
    with pytest.raises(CitedCaseError) as cited:
        build_construction("path-join-null", params)
    report = exact_chi_la(cited.value.graph)
    witness = report.witness
    res = ConstructionResult(witness.graph, witness, frozenset(witness.sums.values()), report.chi_la)
    assert out == dump_json(gen_payload(res, "path-join-null", params))


# Each splice pattern of dump_labeling, a quote, a backslash and non-ASCII text.
_SPLICE_TEXT = '"edges": [] "vertices": [] "labels": [] \\ \u00e9\u4e2d'


@pytest.mark.parametrize("graph,labels,family,params,lists", [
    (build_family("null", 3), (), "null", {}, ('"edges": [],', '"labels": [],', '"claimed_colors": [],')),
    (build_family("path", 2), (1,), "path", {}, ('"edges": [\n      [\n        1,\n        2\n      ]\n    ],',
                                                 '"label": 1\n    }\n  ],')),
    # the patterns in every string the document holds, and as keys in params
    (Graph(2, ((1, 2),), ("u1", "v1"), ("join", _SPLICE_TEXT, ("path", 1))), (1,), _SPLICE_TEXT,
     {"which": _SPLICE_TEXT, "edges": [], "labels": [], "vertices": []},
     ('"label": 1\n    }\n  ],', '"params": {\n    "edges": [],\n    "labels": [],')),
], ids=["edgeless", "one-edge", "patterns-in-strings"])
def test_dump_labeling_writes_empty_lists_as_dump_json_does(graph, labels, family, params, lists):
    # The one-format list writer at 0 and 1 items, and the splice of its lists.
    res = ConstructionResult(graph, EdgeLabeling.from_values(graph, labels), frozenset(), 1)
    text = dump_labeling(res, family, params)
    assert text == dump_json(gen_payload(res, family, params))
    assert all(part in text for part in lists)
    # each item template is json.dumps of one item, at no depth
    for template, values, item in [
        (cli._EDGE_ITEM, (3, 14), [3, 14]),
        (cli._VERTEX_ITEM, (5, json.dumps("v12")), {"id": 5, "role": "v12"}),
        (cli._LABEL_ITEM, (2, 7, 11), {"edge": [2, 7], "label": 11}),
    ]:
        assert template % values == json.dumps(item, sort_keys=True, indent=2)


def test_gen_stdout_is_the_out_file(tmp_path, capsys):
    flags = ["--family", "cycle-join-cycle-minus-edge", "--m", "2", "--n", "3"]
    assert run_cli("gen", *flags) == 0
    out = capsys.readouterr().out
    assert run_cli("gen", *flags, "--out", str(tmp_path / "p")) == 0
    assert (tmp_path / "p.labeling.json").read_text(encoding="utf-8") == out


def test_gen_with_an_empty_out_writes_to_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    flags = ["--family", "path-join-null", "--m", "2", "--N", "3", "--matrix"]
    assert run_cli("gen", *flags) == 0
    expected = capsys.readouterr()
    res = build_construction("path-join-null", {"m": 2, "N": 3})
    pretty = cli.export_matrix(res.graph, res.labeling).to_pretty()
    assert expected.out.endswith("}\n" + pretty) and expected.err == ""
    assert run_cli("gen", *flags, "--out", "") == 0
    assert capsys.readouterr() == expected
    assert list(tmp_path.iterdir()) == []


# -- requests past the size limit --------------------------------------------


@pytest.mark.parametrize("argv,message", [
    (["gen", "--family", "path-join-null", "--m", "1", "--N", "500000"],
     "gen takes at most 1000000 edges; this request has 1000001"),
    (["gen", "--family", "cycle-join-null", "--m", "100000", "--n", "100000", "--matrix"],
     "gen takes at most 1000000 edges; this request has 40000000000"),
    (["matrix", "--family", "cycle-join-null", "--m", "1000", "--n", "1000"],
     "matrix takes at most 1000000 edges; this request has 4000000"),
    (["arrays", "--kind", "rectangle", "--rows", "99999", "--cols", "99999"],
     "arrays takes at most 1000000 cells; this request has 9999800001"),
    (["arrays", "--kind", "nearly-rectangle", "--rows", "1000", "--cols", "1001"],
     "arrays takes at most 1000000 cells; this request has 1001000"),
    (["arrays", "--kind", "square", "--order", "1001"],
     "arrays takes at most 1000000 cells; this request has 1002001"),
    (["solve", "--family", "cycle-join-null", "--m", "100000", "--n", "100000"],
     "graph has 40000000000 > 12 edges; raise max_edges to force the search"),
    (["solve", "--family", "path-join-null", "--m", "2", "--N", "2", "--max-edges", "10"],
     "graph has 11 > 10 edges; raise max_edges to force the search"),
], ids=["gen-one-over", "gen", "matrix", "rectangle", "nearly-rectangle", "square", "solve",
        "solve-max-edges"])
def test_oversized_requests_exit_2_before_building(tmp_path, capsys, monkeypatch, argv, message):
    def refuse(*args):
        raise AssertionError("built a graph or array for an oversized request")

    for name in ("build_construction", "magic_rectangle", "nearly_magic_rectangle",
                 "siamese_magic_square"):
        monkeypatch.setattr(cli, name, refuse)
    assert MAX_OUTPUT_SIZE == 1_000_000
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []
