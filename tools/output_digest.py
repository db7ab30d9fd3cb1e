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
  magic rectangles with 1-29 rows and columns, the refused shapes included.

Stdlib only; it takes about 11 s on a 2-CPU virtual machine.
"""

from __future__ import annotations

import hashlib
import io
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


def main_digest() -> str:
    total = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, part in (("gen+matrix", gen_and_matrix), ("sweep", sweeps), ("arrays", arrays)):
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
