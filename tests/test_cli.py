import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import lajoin
import lajoin.cli as cli
from lajoin.cli import build_parser, main
from lajoin.constructions import build_construction


def run_cli(*argv):
    """Run the CLI in-process, returning (exit_code, captured by capsys)."""
    return main(list(argv))


def run_subprocess(*argv):
    # The child imports the same lajoin as this process, also when it was
    # found through pytest's ``pythonpath`` setting rather than PYTHONPATH.
    src = str(Path(lajoin.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "lajoin.cli", *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
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


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_shared_parser_does_not_leak_flags(tmp_path, monkeypatch):
    seen = []

    def budget(args):
        seen.append(args)
        return 60.0

    monkeypatch.setattr(cli, "_budget", budget)
    flags = ["gen", "--family", "path-join-null", "--m", "2", "--N", "3"]
    assert run_cli(*flags, "--budget", "5", "--matrix", "--out", str(tmp_path / "a")) == 0
    assert run_cli(*flags, "--out", str(tmp_path / "b")) == 0
    assert [a.budget for a in seen] == [5.0, None]
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
