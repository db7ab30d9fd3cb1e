"""Command line interface: gen / verify / solve / matrix / sweep / arrays.

Exit codes: 0 success (sweep: no row is a mismatch; ``inconclusive`` rows
exit 0), 1 verification failure or claim mismatch, 2 usage, parameter or
input-file error, reported as one line on stderr. gen, matrix and arrays
output is byte-stable across runs; solve reports include elapsed time and
are not. Every file read or written is UTF-8, whatever the locale. Input
files are parsed by ``Graph.from_json`` and ``EdgeLabeling.from_json``,
which check one item at a time and word the error for the first bad one.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from json.encoder import encode_basestring_ascii as _escape
from operator import itemgetter
from pathlib import Path

from .arrays import (
    ArrayError,
    array_to_csv,
    array_to_json,
    magic_rectangle,
    nearly_magic_rectangle,
    siamese_magic_square,
)
from .constructions import (
    ALL_FAMILIES,
    FAMILIES,
    CitedCaseError,
    ConstructionResult,
    build_construction,
    edge_count,
    family_graph,
    sweep_points,
)
from .graphs import Graph, ParameterError
from .labelings import (
    EdgeLabeling,
    LabelingError,
    export_matrix,
    verify_local_antimagic,
)
from .solver import SearchConfig, confirm_theorem, exact_chi_la

# Every family parameter, each a flag, and the values ``--which`` takes.
PARAM_KEYS = tuple(dict.fromkeys(key for fam in FAMILIES for key in fam.params))
WHICH_VALUES = tuple(dict.fromkeys(w for fam in FAMILIES for w in fam.which_values))
# The most edges gen and matrix --family, or cells arrays, take on in one
# request. The size is computed in closed form before anything is built, so
# a larger request exits 2 instead of exhausting memory.
MAX_OUTPUT_SIZE = 1_000_000


def dump_json(obj) -> str:
    """``obj`` as ``json.dumps`` writes it with sorted keys and an indent
    of 2, plus a final newline.

    Every JSON document lajoin emits is written here; gen's labeling
    document (see ``dump_labeling``) splices its three long lists into it.
    """
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# One item of each long list of gen's labeling document, as
# json.dumps(item, indent=2) writes it; _items indents it to its list's depth.
_EDGE_ITEM = "[\n  %d,\n  %d\n]"
_VERTEX_ITEM = '{\n  "id": %d,\n  "role": %s\n}'
_LABEL_ITEM = '{\n  "edge": [\n    %d,\n    %d\n  ],\n  "label": %d\n}'


def dump_labeling(res: ConstructionResult, family: str, params: dict) -> str:
    """gen's labeling document: byte for byte ``dump_json`` of
    ``res.labeling.to_json()`` with ``family``, ``params``,
    ``claimed_chi_la`` and ``claimed_colors`` added.

    ``dump_json`` writes it with its edge, vertex and label lists empty;
    ``_items`` writes each list from the edge tuple, the roles and the
    label tuple in place of the first ``"edges": []``, then
    ``"vertices": []``, then ``"labels": []``, in sorted-key order. Each
    first match is the list's own: the keys sort before ``"params"``, the
    one field that may hold objects, and ``json.dumps`` writes a quote in
    a string as ``\\"``, so no string holds a pattern. Ids, endpoints and
    labels are ints, as in every labeling lajoin builds.
    """
    g, edges = res.graph, res.graph.edges
    text = dump_json({
        "claimed_chi_la": res.claimed_chi_la, "claimed_colors": sorted(res.claimed_colors),
        "family": family, "labels": [], "params": params, "schema": "v1",
        "graph": {"edges": [], "family": g.family, "schema": "v1", "vertices": []},
    })
    firsts, seconds = map(itemgetter(0), edges), map(itemgetter(1), edges)
    parts = []
    for key, template, rows in (
        ('"edges": []', _EDGE_ITEM, edges),
        ('"vertices": []', _VERTEX_ITEM, zip(g.vertices, map(_escape, g.roles))),
        ('"labels": []', _LABEL_ITEM, sorted(zip(firsts, seconds, res.labeling.values))),
    ):
        head, _, text = text.partition(key)
        # the key opens its line, so the head ends in that line's newline and indent
        parts += head, key[:-2], _items(template, rows, head[head.rindex("\n"):])
    return "".join(parts) + text


def _items(template: str, rows, newline: str) -> str:
    """A list whose items are ``template % row``, as ``json.dumps`` with an
    indent of 2 writes it on a line indented as ``newline``.

    The whole list is one ``%``: the template, indented past ``newline``,
    once per row, joined by the separator, applied to the rows' values.
    """
    rows = tuple(rows)
    if not rows:
        return "[]"
    inner = newline + "  "
    item = template.replace("\n", inner)
    body = ("," + inner).join([item] * len(rows)) % tuple(itertools.chain.from_iterable(rows))
    return "[" + inner + body + newline + "]"


def _read_json(path: str):
    # ValueError covers JSONDecodeError, UnicodeDecodeError and integer
    # literals over Python's 4300-digit conversion limit; RecursionError,
    # arrays or objects nested past the recursion limit.
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ParameterError(f"{path} is not valid JSON: {exc}") from None


def _collect_params(args) -> dict:
    return {key: getattr(args, key) for key in PARAM_KEYS if getattr(args, key) is not None}


def _add_search_flags(sub) -> None:
    sub.add_argument("--max-edges", type=int, default=SearchConfig._field_defaults["max_edges"],
                     help="largest edge count the solver searches")
    sub.add_argument("--budget", type=float, default=SearchConfig._field_defaults["time_budget"],
                     help="solver time budget in seconds")


def _search_config(args, target_colors: int | None = None) -> SearchConfig:
    # SearchConfig rejects a non-positive --max-edges, --budget or --target.
    return SearchConfig(max_edges=args.max_edges, target_colors=target_colors, time_budget=args.budget)


def _source(args, kind: str) -> str | None:
    """The one source given: ``--input``, or None for ``--family`` and its parameter flags."""
    if not args.input and not args.family:
        raise ParameterError(f"{args.command} needs --input {kind}.json or --family with parameters")
    if args.input and (args.family or _collect_params(args)):
        raise ParameterError(f"{args.command} takes --input or --family with parameters, not both")
    return args.input


def _add_param_flags(sub, required: bool = False, number=int):
    """--family and one flag per family parameter; sweep reads numbers as ranges."""
    sub.add_argument("--family", required=required, choices=ALL_FAMILIES)
    for key in PARAM_KEYS:
        if key == "which":
            sub.add_argument("--which", choices=WHICH_VALUES)
        else:
            sub.add_argument(f"--{key}", type=number)


def _check_size(command: str, size: int, unit: str) -> None:
    if size > MAX_OUTPUT_SIZE:
        raise ParameterError(f"{command} takes at most {MAX_OUTPUT_SIZE} {unit}; this request has {size}")


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _gen(args) -> int:
    params = _collect_params(args)
    cfg = _search_config(args)
    _check_size("gen", edge_count(args.family, params), "edges")
    try:
        res = build_construction(args.family, params)
        note = None
    except CitedCaseError as exc:
        if exc.graph.q > cfg.max_edges:
            raise ParameterError(f"{exc}; graph too large for the solver route (q={exc.graph.q})")
        report = exact_chi_la(exc.graph, cfg)
        if not report.exact:
            raise ParameterError(f"{exc}; the search ran out of --budget before settling the cited value")
        if report.witness is None:
            raise ParameterError(f"{exc}; solver found no labeling")
        res = ConstructionResult(
            exc.graph, report.witness, frozenset(report.witness.sums.values()), report.chi_la
        )
        note = f"solver route: chi_la={report.chi_la}"
    cert = verify_local_antimagic(res.graph, res.labeling)
    if not cert.ok:
        print(f"error: generated labeling failed verification at {cert.failure}", file=sys.stderr)
        return 1
    # With --out PREFIX the JSON and the CSV matrix go to files; with no
    # --out, or an empty PREFIX, the JSON and the pretty matrix go to stdout.
    prefix = args.out or None
    _write(prefix and f"{prefix}.labeling.json", dump_labeling(res, args.family, params))
    if args.matrix:
        matrix = export_matrix(res.graph, res.labeling)
        _write(prefix and f"{prefix}.matrix.csv", matrix.to_csv() if prefix else matrix.to_pretty())
    if note:
        print(note, file=sys.stderr)
    return 0


def _verify(args) -> int:
    if args.lower_bound is not None and args.lower_bound < 1:
        raise ParameterError("lower bound must be at least 1")
    f = EdgeLabeling.from_json(_read_json(args.labeling))
    cert = verify_local_antimagic(f.graph, f, lower_bound=args.lower_bound)
    if args.format == "json":
        _write(args.out, dump_json(cert.to_json()))
    else:
        lines = [
            f"bijection: {'ok' if cert.bijection_ok else 'FAILED'}",
            f"adjacent sums distinct: {'ok' if cert.proper else 'FAILED'}",
            f"colors: {cert.color_count} -> {sorted(cert.color_classes)}",
        ]
        if cert.verdict:
            lines.append(f"against lower bound {cert.lower_bound}: {cert.verdict}")
        if cert.failure:
            lines.append(f"equal sums on adjacent pair: {cert.failure}")
        _write(args.out, "\n".join(lines) + "\n")
    if not cert.ok:
        reason = f"adjacent pair {cert.failure}" if cert.failure else "labels are not a bijection"
        print(f"verification failed: {reason}", file=sys.stderr)
        return 1
    return 0


def _solve(args) -> int:
    cfg = _search_config(args, args.target)
    path = _source(args, "GRAPH")
    if path:
        g = Graph.from_json(_read_json(path))
    else:
        params = _collect_params(args)
        q = edge_count(args.family, params)
        if q > cfg.max_edges:  # exact_chi_la's own refusal, made before the graph is built
            raise ParameterError(f"graph has {q} > {cfg.max_edges} edges; raise max_edges to force the search")
        g = family_graph(args.family, params)
    report = exact_chi_la(g, cfg)
    _write(args.out, dump_json(report.to_json()))
    return 0


def _matrix(args) -> int:
    path = _source(args, "LABELING")
    if path:
        f = EdgeLabeling.from_json(_read_json(path))
    else:
        params = _collect_params(args)
        _check_size("matrix", edge_count(args.family, params), "edges")
        f = build_construction(args.family, params).labeling
    matrix = export_matrix(f.graph, f)
    text = matrix.to_csv() if args.format == "csv" else matrix.to_pretty()
    _write(args.out, text)
    return 0


def _parse_range(key: str, text: str) -> range:
    try:
        lo, hi = text.split("..", 1) if ".." in text else (text, text)
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ParameterError(f"--{key} takes an integer or a range LO..HI, got {text!r}") from None
    if lo > hi:
        raise ParameterError(f"--{key} takes a range LO..HI with LO <= HI, got {text!r}")
    if lo < 1:
        raise ParameterError(f"--{key} takes values >= 1, got {text!r}")
    return range(lo, hi + 1)


def _sweep(args) -> int:
    values = {
        key: _parse_range(key, getattr(args, key))
        for key in PARAM_KEYS
        if key != "which" and getattr(args, key) is not None
    }
    if values:
        if args.which:
            values["which"] = [args.which]
        # Every value is at least 1, where each family's q grows along each
        # axis, so the last point of the ranges has the most edges; checking
        # it first keeps a huge range from being built.
        last = {key: axis[-1] for key, axis in values.items()}
        q = edge_count(args.family, last)
        if q > args.max_total_edges:
            flags = " ".join(f"--{key} {value}" for key, value in last.items())
            raise ParameterError(
                f"{args.family} at {flags} has {q} edges, "
                f"more than --max-total-edges {args.max_total_edges}"
            )
        points = [dict(zip(values, combo)) for combo in itertools.product(*values.values())]
    else:
        points = sweep_points(args.family, args.max_total_edges)
        which = args.which  # alone, --which keeps its own points; check_params refuses it where not taken
        if which:
            points = [{**p, "which": which} for p in points if p.get("which", which) == which]
        if not points:
            raise ParameterError(
                f"family {args.family} has no sweep point within "
                f"--max-total-edges {args.max_total_edges}"
            )
    cfg = _search_config(args)
    rows = [confirm_theorem(args.family, params, cfg) for params in points]
    worst = int(any(r.verdict == "mismatch" for r in rows))
    if args.format == "json":
        text = dump_json([r.to_json() for r in rows])
    elif args.format == "csv":
        lines = ["family,params,verdict,claimed,measured,chi_lower,solver"]
        for r in rows:
            p = ";".join(f"{k}={v}" for k, v in sorted(r.params.items()))
            lines.append(
                f"{r.family},{p},{r.verdict},{r.claimed_chi_la},{r.measured_colors},"
                f"{r.chi_lower_bound},{r.solver_chi_la}"
            )
        text = "\n".join(lines) + "\n"
    else:
        lines = []
        for r in rows:
            p = " ".join(f"{k}={v}" for k, v in sorted(r.params.items()))
            lines.append(f"{r.family} {p}: {r.verdict} (claimed={r.claimed_chi_la}, {r.detail})")
        text = "\n".join(lines) + "\n"
    _write(args.out, text)
    return worst


def _arrays(args) -> int:
    if args.kind == "square":
        if args.order is None:
            raise ParameterError("square needs --order")
        _check_size("arrays", args.order * args.order, "cells")
        arr = siamese_magic_square(args.order)
    elif args.rows is None or args.cols is None:
        raise ParameterError(f"{args.kind} needs --rows and --cols")
    else:
        _check_size("arrays", args.rows * args.cols, "cells")
        if args.kind == "rectangle":
            arr = magic_rectangle(args.rows, args.cols)
        else:
            arr = nearly_magic_rectangle(args.rows, args.cols)
    text = dump_json(array_to_json(arr)) if args.format == "json" else array_to_csv(arr)
    _write(args.out, text)
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so ``main`` prints one ``error:`` line, not a usage block."""

    def error(self, message: str):
        raise ParameterError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``lajoin`` argument parser, built once per process.

    Every ``main`` call shares this one parser: ``parse_args`` keeps no
    state between calls and each subcommand is bound through
    ``set_defaults(func=...)``. Callers must not mutate it (no
    ``add_argument``, ``set_defaults`` or ``add_subparsers``), because the
    change would leak into every later call. The sharing saves time only
    where ``main`` runs many times in one process (tests, library
    callers); the ``lajoin`` console script runs it once per process.
    """
    parser = _Parser(
        prog="lajoin",
        description=(
            "Local antimagic edge labelings of join graphs: closed-form "
            "constructions, certificates, magic arrays, and an exact solver. "
            "Family strings are listed in FAMILIES.md."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a labeling for a family")
    _add_param_flags(gen, required=True)
    gen.add_argument("--matrix", action="store_true", help="also emit the labeling matrix CSV")
    gen.add_argument("--out", help="output prefix (writes PREFIX.labeling.json)")
    _add_search_flags(gen)
    gen.set_defaults(func=_gen)

    ver = sub.add_parser("verify", help="verify a labeling JSON file")
    ver.add_argument("labeling")
    ver.add_argument("--lower-bound", type=int)
    ver.add_argument("--format", choices=["pretty", "json"], default="pretty")
    ver.add_argument("--out")
    ver.set_defaults(func=_verify)

    sol = sub.add_parser("solve", help="exact minimum color count by search")
    _add_param_flags(sol)
    sol.add_argument("--input", help="graph JSON file")
    _add_search_flags(sol)
    sol.add_argument("--target", type=int, help="stop once a labeling this good is found")
    sol.add_argument("--out")
    sol.set_defaults(func=_solve)

    mat = sub.add_parser("matrix", help="export the labeling matrix")
    _add_param_flags(mat)
    mat.add_argument("--input", help="labeling JSON file")
    mat.add_argument("--format", choices=["csv", "pretty"], default="pretty")
    mat.add_argument("--out")
    mat.set_defaults(func=_matrix)

    sw = sub.add_parser("sweep", help="confirm a family's claims over parameter ranges")
    _add_param_flags(sw, required=True, number=str)
    sw.add_argument("--max-total-edges", type=int, default=400)
    _add_search_flags(sw)
    sw.add_argument("--format", choices=["pretty", "csv", "json"], default="pretty")
    sw.add_argument("--out")
    sw.set_defaults(func=_sweep)

    arr = sub.add_parser("arrays", help="emit magic arrays")
    arr.add_argument("--kind", choices=["square", "rectangle", "nearly-rectangle"], required=True)
    arr.add_argument("--order", type=int)
    arr.add_argument("--rows", type=int)
    arr.add_argument("--cols", type=int)
    arr.add_argument("--format", choices=["csv", "json"], default="csv")
    arr.add_argument("--out")
    arr.set_defaults(func=_arrays)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ParameterError, ArrayError, LabelingError) as exc:
        message = str(exc)
    except OSError as exc:
        message = f"cannot access {exc.filename}: {exc.strerror}"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
