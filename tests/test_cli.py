import json
import subprocess
import sys

import pytest

from lajoin.cli import main


def run_cli(*argv):
    """Run the CLI in-process, returning (exit_code, captured by capsys)."""
    return main(list(argv))


def run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "lajoin.cli", *argv], capture_output=True, text=True
    )


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


def test_gen_cited_case_routes_to_solver(tmp_path):
    prefix = tmp_path / "fan"
    proc = run_subprocess("gen", "--family", "path-join-null", "--m", "2", "--N", "1",
                          "--out", str(prefix))
    assert proc.returncode == 0
    assert "solver route" in proc.stderr
    data = json.loads(prefix.with_suffix(".labeling.json").read_text())
    assert data["claimed_chi_la"] == 4
    assert run_cli("verify", str(prefix.with_suffix(".labeling.json"))) == 0


def test_solve_family(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli("solve", "--family", "path-join-null", "--m", "2", "--N", "1",
                   "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["chi_la"] == 4 and data["exact"] is True
    assert data["witness"]["labels"]


def test_solve_graph_input(tmp_path):
    from lajoin.graphs import build_family, graph_to_json_str

    path = tmp_path / "c3.json"
    path.write_text(graph_to_json_str(build_family("cycle", 3)))
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


def test_env_var_budget(tmp_path, monkeypatch):
    monkeypatch.setenv("LAJOIN_TIME_BUDGET", "30")
    out = tmp_path / "r.json"
    assert run_cli("solve", "--family", "path-join-null", "--m", "1", "--N", "2",
                   "--out", str(out)) == 0
    assert json.loads(out.read_text())["chi_la"] == 3


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


def test_missing_family_parameter_exits_2():
    proc = run_subprocess("gen", "--family", "path-join-null", "--m", "3")
    assert proc.returncode == 2
    assert proc.stderr == "error: path-join-null needs parameter N\n"


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
    out = tmp_path / "sweep.txt"
    code = run_cli("sweep", "--family", "path-join-null", "--m", "3", "--N", "1",
                   "--budget", "1e-6", "--out", str(out))
    assert code == 0
    assert "inconclusive" in out.read_text()
