"""Command line interface: gen / verify / solve / matrix / sweep / arrays.

Exit codes: 0 success (sweep: no row is a mismatch; ``inconclusive`` rows
exit 0), 1 verification failure or claim mismatch, 2 usage, parameter or
input-file error, reported as one line on stderr. All output files are
deterministic for a given command line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .arrays import (
    ArrayError,
    array_to_csv,
    array_to_json_str,
    magic_rectangle,
    nearly_magic_rectangle,
    siamese_magic_square,
)
from .constructions import (
    ALL_FAMILIES,
    CitedCaseError,
    ConstructionResult,
    build_construction,
    sweep_points,
)
from .graphs import Graph, ParameterError
from .labelings import (
    EdgeLabeling,
    LabelingError,
    export_matrix,
    verify_local_antimagic,
)
from .solver import SearchConfig, ConfirmationVerdict, confirm_theorem, exact_chi_la

PARAM_KEYS = ("m", "n", "N", "r", "which")


def _budget(args) -> float:
    """--budget, else LAJOIN_TIME_BUDGET, else 60 s; SearchConfig checks the sign."""
    if args.budget is not None:
        return args.budget
    raw = os.environ.get("LAJOIN_TIME_BUDGET")
    if not raw:
        return 60.0
    try:
        return float(raw)
    except ValueError:
        raise ParameterError(f"LAJOIN_TIME_BUDGET must be a number, got {raw!r}") from None


def _read_json(path: str):
    # ValueError covers JSONDecodeError, UnicodeDecodeError and integer
    # literals over Python's 4300-digit conversion limit; RecursionError,
    # arrays or objects nested past the recursion limit.
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise ParameterError(f"{path} is not valid JSON: {exc}") from None


def _collect_params(args) -> dict:
    params = {}
    for key in PARAM_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return params


def _add_param_flags(sub):
    sub.add_argument("--family", required=False, choices=ALL_FAMILIES)
    sub.add_argument("--m", type=int)
    sub.add_argument("--n", type=int)
    sub.add_argument("--N", type=int)
    sub.add_argument("--r", type=int)
    sub.add_argument("--which", choices=["cycle-edge", "join-edge"])


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _fail_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _gen(args) -> int:
    if not args.family:
        return _fail_usage("gen needs --family")
    params = _collect_params(args)
    cfg = SearchConfig(max_edges=args.max_edges, time_budget=_budget(args))
    try:
        res = build_construction(args.family, params)
        note = None
    except CitedCaseError as exc:
        if exc.graph.q > cfg.max_edges:
            return _fail_usage(f"{exc}; graph too large for the solver route (q={exc.graph.q})")
        report = exact_chi_la(exc.graph, cfg)
        if report.witness is None:
            return _fail_usage(f"{exc}; solver found no labeling")
        res = ConstructionResult(
            args.family, params, exc.graph, report.witness,
            frozenset(report.witness.sums.values()), report.chi_la,
            notes=("labeled by the exact solver (cited parameter point)",),
        )
        note = f"solver route: chi_la={report.chi_la} exact={report.exact}"
    cert = verify_local_antimagic(res.graph, res.labeling)
    if not cert.ok:
        print(f"error: generated labeling failed verification at {cert.failure}", file=sys.stderr)
        return 1
    out_prefix = args.out
    payload = res.labeling.to_json()
    payload["family"] = res.family
    payload["params"] = res.params
    payload["claimed_chi_la"] = res.claimed_chi_la
    payload["claimed_colors"] = sorted(res.claimed_colors)
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_prefix:
        _write(f"{out_prefix}.labeling.json", text)
        if args.matrix:
            matrix = export_matrix(res.graph, res.labeling)
            _write(f"{out_prefix}.matrix.csv", matrix.to_csv())
    else:
        _write(None, text)
        if args.matrix:
            matrix = export_matrix(res.graph, res.labeling)
            _write(None, matrix.to_pretty())
    if note:
        print(note, file=sys.stderr)
    return 0


def _verify(args) -> int:
    f = EdgeLabeling.from_json(_read_json(args.labeling))
    cert = verify_local_antimagic(f.graph, f, lower_bound=args.lower_bound)
    if args.format == "json":
        _write(args.out, json.dumps(cert.to_json(), sort_keys=True, indent=2) + "\n")
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
    cfg = SearchConfig(
        max_edges=args.max_edges,
        target_colors=args.target,
        time_budget=_budget(args),
    )
    if args.input:
        g = Graph.from_json(_read_json(args.input))
    elif args.family:
        try:
            res = build_construction(args.family, _collect_params(args))
            g = res.graph
        except CitedCaseError as exc:
            g = exc.graph
    else:
        return _fail_usage("solve needs --input GRAPH.json or --family with parameters")
    report = exact_chi_la(g, cfg)
    _write(args.out, json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n")
    return 0


def _matrix(args) -> int:
    if args.input:
        f = EdgeLabeling.from_json(_read_json(args.input))
        graph = f.graph
    elif args.family:
        res = build_construction(args.family, _collect_params(args))
        graph, f = res.graph, res.labeling
    else:
        return _fail_usage("matrix needs --input LABELING.json or --family with parameters")
    matrix = export_matrix(graph, f)
    text = matrix.to_csv() if args.format == "csv" else matrix.to_pretty()
    _write(args.out, text)
    return 0


def _parse_range(key: str, text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(text)]
    except ValueError:
        raise ParameterError(f"--{key} takes an integer or a range LO..HI, got {text!r}") from None


def _sweep(args) -> int:
    if not args.family:
        return _fail_usage("sweep needs --family")
    ranges = {}
    for key in ("m", "n", "N", "r"):
        vals = _parse_range(key, getattr(args, key))
        if vals is not None:
            ranges[key] = vals
    which = [args.which] if args.which else None
    if ranges or which:
        points = [{}]
        for key, vals in ranges.items():
            points = [dict(p, **{key: v}) for p in points for v in vals]
        if which:
            points = [dict(p, which=w) for p in points for w in which]
    else:
        points = sweep_points(args.family, args.max_total_edges)
    cfg = SearchConfig(max_edges=args.max_edges, time_budget=_budget(args))
    rows: list[ConfirmationVerdict] = []
    worst = 0
    for params in points:
        try:
            verdict = confirm_theorem(args.family, params, cfg)
        except ParameterError as exc:
            verdict = ConfirmationVerdict(
                args.family, params, "out-of-range", None, None, None, None, str(exc)
            )
        rows.append(verdict)
        if verdict.verdict == "mismatch":
            worst = 1
    if args.format == "json":
        text = json.dumps([r.to_json() for r in rows], sort_keys=True, indent=2) + "\n"
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
        if not args.order:
            return _fail_usage("square needs --order")
        arr = siamese_magic_square(args.order)
    elif args.kind == "rectangle":
        if not (args.rows and args.cols):
            return _fail_usage("rectangle needs --rows and --cols")
        arr = magic_rectangle(args.rows, args.cols)
    else:
        if not (args.rows and args.cols):
            return _fail_usage("nearly-rectangle needs --rows and --cols")
        arr = nearly_magic_rectangle(args.rows, args.cols)
    text = array_to_json_str(arr) if args.format == "json" else array_to_csv(arr)
    _write(args.out, text)
    return 0


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
    parser = argparse.ArgumentParser(
        prog="lajoin",
        description=(
            "Local antimagic edge labelings of join graphs: closed-form "
            "constructions, certificates, magic arrays, and an exact solver. "
            "Family strings are listed in FAMILIES.md."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a labeling for a family")
    _add_param_flags(gen)
    gen.add_argument("--matrix", action="store_true", help="also emit the labeling matrix CSV")
    gen.add_argument("--out", help="output prefix (writes PREFIX.labeling.json)")
    gen.add_argument("--max-edges", type=int, default=12)
    gen.add_argument("--budget", type=float, help="solver time budget in seconds")
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
    sol.add_argument("--max-edges", type=int, default=12)
    sol.add_argument("--target", type=int, help="stop once a labeling this good is found")
    sol.add_argument("--budget", type=float, help="time budget in seconds")
    sol.add_argument("--out")
    sol.set_defaults(func=_solve)

    mat = sub.add_parser("matrix", help="export the labeling matrix")
    _add_param_flags(mat)
    mat.add_argument("--input", help="labeling JSON file")
    mat.add_argument("--format", choices=["csv", "pretty"], default="pretty")
    mat.add_argument("--out")
    mat.set_defaults(func=_matrix)

    sw = sub.add_parser("sweep", help="confirm a family's claims over parameter ranges")
    sw.add_argument("--family", required=True, choices=ALL_FAMILIES)
    sw.add_argument("--m")
    sw.add_argument("--n")
    sw.add_argument("--N")
    sw.add_argument("--r")
    sw.add_argument("--which", choices=["cycle-edge", "join-edge"])
    sw.add_argument("--max-total-edges", type=int, default=400)
    sw.add_argument("--max-edges", type=int, default=12, help="solver cutoff per instance")
    sw.add_argument("--budget", type=float)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, ArrayError, LabelingError) as exc:
        return _fail_usage(str(exc))
    except OSError as exc:
        return _fail_usage(f"cannot access {exc.filename}: {exc.strerror}")


if __name__ == "__main__":
    sys.exit(main())
