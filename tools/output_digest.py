"""One sha256 over lajoin's byte-stable CLI outputs, to show that a change
leaves them unchanged.

    python3 tools/output_digest.py            # prints one digest per section, then the total

It imports lajoin from ``src/`` of the checkout it sits in, so running it in
two checkouts compares them. Every command runs in process through
``lajoin.cli.main``, inside a fresh temporary directory so that file names
are relative and the same on every run. Each command's arguments, exit
code, standard output, standard error and written files go into the hash:

- ``gen --matrix --out`` (labeling JSON and matrix CSV) and
  ``matrix --input <that labeling> --format csv`` at every budget-400
  sweep point of every family (3395 points);
- ``sweep --format json`` for each family;
- ``arrays`` as CSV and JSON: squares of order 1-39, and magic and nearly
  magic rectangles with 1-29 rows and columns, the refused shapes included;
- ``inputs``: the readers on valid and faulty files. The gen documents of
  four budget-40 points each get one fault at a time, or none, or their
  edges reversed, or their vertex ids listed in reverse order. Each
  labeling goes through ``verify`` and ``matrix --input``, and each graph
  through ``solve --input --max-edges 1``, which refuses every graph read
  before it searches, so its output holds no elapsed time.

Stdlib only; it takes about 13 s on a 2-CPU virtual machine.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lajoin.cli import main  # noqa: E402
from lajoin.constructions import ALL_FAMILIES, sweep_points  # noqa: E402


def _run(argv: list[str], files: list[Path], section) -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    record = [" ".join(argv), str(code), out.getvalue(), err.getvalue()]
    for path in files:
        record.append(path.read_text(encoding="utf-8") if path.exists() else "<absent>")
        path.unlink(missing_ok=True)
    section.update("\0".join(record).encode() + b"\1")


def _point_flags(family: str, params: dict) -> list[str]:
    flags = ["--family", family]
    for key, value in params.items():
        flags += [f"--{key}", str(value)]
    return flags


def gen_and_matrix(section) -> int:
    labeling, matrix, csv = Path("point.labeling.json"), Path("point.matrix.csv"), Path("point.csv")
    count = 0
    for family in ALL_FAMILIES:
        for params in sweep_points(family, 400):
            flags = _point_flags(family, params)
            _run(["gen", *flags, "--matrix", "--out", "point"], [matrix], section)
            _run(["matrix", "--input", str(labeling), "--format", "csv", "--out", str(csv)],
                 [labeling, csv], section)
            count += 1
    return count


def sweeps(section) -> int:
    for family in ALL_FAMILIES:
        _run(["sweep", "--family", family, "--format", "json"], [], section)
    return len(ALL_FAMILIES)


def arrays(section) -> int:
    shapes = [["--kind", "square", "--order", str(k)] for k in range(1, 40)]
    for kind in ("rectangle", "nearly-rectangle"):
        shapes += [["--kind", kind, "--rows", str(r), "--cols", str(c)]
                   for r in range(1, 30) for c in range(1, 30)]
    for shape in shapes:
        for fmt in ("csv", "json"):
            _run(["arrays", *shape, "--format", fmt], [], section)
    return 2 * len(shapes)


# One point per kind of graph, each the last budget-40 sweep point of its
# family, none of them cited: own edges on the first side only, on both
# sides, a deleted join edge, and the stored P_7 v O_3 table.
_INPUT_FAMILIES = ("path-join-null", "cycle-join-cycle", "cycle-join-null-minus-edge", "p7-o3")
_DROP = object()

# (name, path, how the value at path changes); a path step is a key or an
# index, the empty path is the document, and _DROP removes the slot. The
# faults are those of the readers' tests: edges that are reversed, looped,
# not integer pairs, out of range or repeated; vertices with a missing,
# mistyped or repeated id or role; malformed families and missing keys.
_GRAPH_FAULTS = [
    ("as-written", (), lambda doc: doc),
    ("edges-reversed", ("edges",), lambda edges: [e[::-1] for e in edges]),
    ("ids-in-reverse-order", ("vertices",), lambda verts: verts[::-1]),
    ("self-loop", ("edges", 1), lambda e: [e[0], e[0]]),
    ("true-endpoint", ("edges", 1), lambda e: [True, e[1]]),
    ("float-endpoint", ("edges", 1), lambda e: [e[0], float(e[1])]),
    ("one-endpoint", ("edges", 1), lambda e: e[:1]),
    ("three-endpoints", ("edges", 1), lambda e: [*e, e[0]]),
    ("endpoint-0", ("edges", 1), lambda e: [0, e[1]]),
    ("endpoint-past-n", ("edges", 1), lambda e: [e[0], 99]),  # every point has n < 99
    ("edge-twice", ("edges",), lambda edges: edges + [edges[1]]),
    ("edge-twice-reversed", ("edges",), lambda edges: edges + [edges[1][::-1]]),
    ("edge-not-list", ("edges", 1), lambda e: "edge"),
    ("edges-not-list", ("edges",), lambda edges: {}),
    ("no-edges", ("edges",), lambda edges: _DROP),
    ("no-vertices", ("vertices",), lambda verts: _DROP),
    ("vertex-not-object", ("vertices", 1), lambda v: v["role"]),
    ("no-id", ("vertices", 1, "id"), lambda i: _DROP),
    ("true-id", ("vertices", 0, "id"), lambda i: True),
    ("id-past-n", ("vertices", -1, "id"), lambda i: i + 1),
    ("no-role", ("vertices", 1, "role"), lambda role: _DROP),
    ("role-ux", ("vertices", 1, "role"), lambda role: "ux"),
    ("role-u0", ("vertices", 1, "role"), lambda role: "u0"),
    ("role-unicode-digit", ("vertices", 1, "role"), lambda role: "u\u0661"),
    ("role-twice", ("vertices", 1, "role"), lambda role: "u1"),
    ("family-int", ("family",), lambda family: 3),
    ("family-object-item", ("family",), lambda family: [{}]),
    ("family-33-deep", ("family",), lambda family: json.loads("[" * 33 + "]" * 33)),
    ("not-an-object", (), lambda doc: [doc]),
]
_LABELING_FAULTS = [(f"graph-{name}", ("graph", *path), change) for name, path, change in _GRAPH_FAULTS] + [
    ("label-edges-reversed", ("labels",), lambda items: [{**x, "edge": x["edge"][::-1]} for x in items]),
    ("label-edge-self-loop", ("labels", 1, "edge"), lambda e: [e[0], e[0]]),
    ("label-edge-true", ("labels", 1, "edge"), lambda e: [True, e[1]]),
    ("label-edge-float", ("labels", 1, "edge"), lambda e: [e[0], float(e[1])]),
    ("label-edge-one-endpoint", ("labels", 1, "edge"), lambda e: e[:1]),
    ("label-edge-three-endpoints", ("labels", 1, "edge"), lambda e: [*e, e[0]]),
    ("label-edge-past-n", ("labels", 1, "edge"), lambda e: [e[0], 99]),
    ("label-edge-twice", ("labels",), lambda items: items + [items[1]]),
    ("label-edge-twice-reversed", ("labels",), lambda items: items + [{**items[1], "edge": items[1]["edge"][::-1]}]),
    ("label-edge-missing", ("labels",), lambda items: items[1:]),
    ("true-label", ("labels", 1, "label"), lambda label: True),
    ("float-label", ("labels", 1, "label"), float),
    ("nan-label", ("labels", 1, "label"), lambda label: float("nan")),
    ("label-0", ("labels", 1, "label"), lambda label: 0),
    ("label-repeated", ("labels",), lambda items: [items[0], {**items[1], "label": items[0]["label"]}, *items[2:]]),
    ("labels-swapped", ("labels",), lambda items: [{**items[0], "label": items[1]["label"]},
                                                   {**items[1], "label": items[0]["label"]}, *items[2:]]),
    ("no-label", ("labels", 1, "label"), lambda label: _DROP),
    ("no-label-edge", ("labels", 1, "edge"), lambda e: _DROP),
    ("item-is-its-edge", ("labels", 1), lambda item: item["edge"]),
    ("item-null", ("labels", 1), lambda item: None),
    ("labels-not-list", ("labels",), lambda items: {}),
    ("no-labels", ("labels",), lambda items: _DROP),
    ("no-graph", ("graph",), lambda graph: _DROP),
    ("no-schema", ("schema",), lambda schema: _DROP),
    ("schema-v2", ("schema",), lambda schema: "v2"),
    ("not-an-object", (), lambda doc: [doc]),
]


def _faulty(doc, path, change):
    """A copy of ``doc`` with ``change(old)`` at ``path``."""
    doc = copy.deepcopy(doc)
    if not path:
        return change(doc)
    *steps, last = path
    node = doc
    for step in steps:
        node = node[step]
    new = change(node[last])
    if new is _DROP:
        del node[last]
    else:
        node[last] = new
    return doc


def inputs(section) -> int:
    count = 0
    for family in _INPUT_FAMILIES:
        flags = _point_flags(family, sweep_points(family, 40)[-1])
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            main(["gen", *flags, "--out", "base"])  # a failed gen leaves no file to read
        base = Path("base.labeling.json")
        labeling = json.loads(base.read_text(encoding="utf-8"))
        base.unlink()
        for name, path, change in _LABELING_FAULTS:
            doc = Path(f"{family}.{name}.json")
            doc.write_text(json.dumps(_faulty(labeling, path, change)), encoding="utf-8")
            _run(["verify", str(doc)], [], section)
            _run(["matrix", "--input", str(doc)], [doc], section)
            count += 1
        for name, path, change in _GRAPH_FAULTS:
            doc = Path(f"{family}.graph.{name}.json")
            doc.write_text(json.dumps(_faulty(labeling["graph"], path, change)), encoding="utf-8")
            _run(["solve", "--input", str(doc), "--max-edges", "1"], [doc], section)
            count += 1
    return count


def main_digest() -> str:
    total = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, part in (("gen+matrix", gen_and_matrix), ("sweep", sweeps), ("arrays", arrays),
                               ("inputs", inputs)):
                section = hashlib.sha256()
                count = part(section)
                print(f"{name}: {count} items {section.hexdigest()}")
                total.update(section.digest())
        finally:
            os.chdir(cwd)
    print(f"total {total.hexdigest()}")
    return total.hexdigest()


if __name__ == "__main__":
    main_digest()
