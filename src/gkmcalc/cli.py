"""Command-line front end.

Subcommands::

    validate FILE                     graph validation report
    cohomology FILE --max-degree D    equivariant graded dimensions
    basic FILE --max-degree D         basic cohomology series + report
    morse-bott FILE                   assemble sum_B t^index P_B
    gysin FILE                        ordinary Betti numbers
    toric-skeleton FILE               moment polytope -> graph JSON
    example NAME [params]             builtin graph (or polytope) JSON
    check FILE --max-degree D         theorem checks

``FILE`` may be ``-`` for standard input.  All JSON output is
deterministic (sorted keys, fixed indentation) and round-trips: a graph
produced by ``example`` or ``toric-skeleton`` feeds any graph-consuming
subcommand.  ``--format table`` renders a human-oriented table instead;
the JSON shape is the compatibility contract, the table is not.

Exit codes: 0 success; 1 input or validation error (message on stderr,
prefixed ``error:``); 2 theorem-check failure (including formality and
Gysin inconsistencies); 3 inconclusive at cutoff when ``--strict`` is
given (a warning on stderr otherwise).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    FormalityViolation,
    GkmError,
    GysinInconsistency,
    InputShapeError,
)
from .exactlin import rational_from_json
from .gkmcore import GkmGraph, equivariant_dims, graph_from_json, validate_graph
from .examples import (
    builtin_fiber_join,
    builtin_hirzebruch,
    builtin_simplex,
    builtin_stiefel,
)
from .series import (
    GysinData,
    MorseBottData,
    basic_from_equivariant,
    default_cutoff,
    gysin_betti,
    morse_bott_assemble,
    run_checks,
)
from .toric import MomentPolytope, polytope_skeleton, simplex_polytope

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CHECK_FAILED = 2
EXIT_INCONCLUSIVE = 3


class _CliParser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the CLI contract wants 1
    def error(self, message):
        raise InputShapeError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="gkmcalc", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, max_degree=True):
        p.add_argument("input", help="input file, or - for stdin")
        p.add_argument(
            "--format", choices=("json", "table"), default="json", dest="fmt"
        )
        if max_degree:
            p.add_argument(
                "--max-degree",
                type=int,
                default=None,
                help="series cutoff; defaults to max(20, 2*(vertices+2)) "
                "or the GKM_MAX_DEGREE environment variable",
            )

    add_common(sub.add_parser("validate", help="validate a GKM graph"), max_degree=False)
    add_common(sub.add_parser("cohomology", help="equivariant graded dimensions"))
    bs = sub.add_parser("basic", help="basic cohomology series")
    add_common(bs)
    bs.add_argument("--strict", action="store_true",
                    help="exit 3 when the series is not yet polynomial at the cutoff")
    add_common(sub.add_parser("morse-bott", help="assemble a Morse-Bott series"))
    add_common(sub.add_parser("gysin", help="Betti numbers from Gysin data"),
               max_degree=False)
    add_common(sub.add_parser("toric-skeleton", help="one-skeleton of a moment polytope"),
               max_degree=False)
    ck = sub.add_parser("check", help="run the theorem checks")
    add_common(ck)
    ck.add_argument("--strict", action="store_true",
                    help="exit 3 when any check is inconclusive at the cutoff")

    ex = sub.add_parser("example", help="emit a builtin example")
    ex.add_argument(
        "name",
        choices=("simplex", "fiber-join", "hirzebruch", "stiefel", "simplex-polytope"),
    )
    ex.add_argument("--n", type=int, default=None, help="simplex/fiber-join size")
    ex.add_argument("--genus", type=int, default=None, help="fiber-join surface genus")
    ex.add_argument("--m", type=int, default=None, help="hirzebruch Euler parameter")
    ex.add_argument(
        "--weights",
        nargs="+",
        default=None,
        help="ellipsoid weights a_0..a_n (rationals) for simplex-polytope",
    )
    ex.add_argument("--format", choices=("json", "table"), default="json", dest="fmt")
    return parser


def _read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputShapeError(f"cannot read {path!r}: {exc}") from None
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputShapeError(f"malformed JSON in {path!r}: {exc}") from None


def _load_graph(path: str) -> GkmGraph:
    return graph_from_json(_read_json(path))


def _resolve_cutoff(arg: int | None, graph: GkmGraph | None) -> int:
    if arg is not None:
        cutoff = arg
    else:
        env = os.environ.get("GKM_MAX_DEGREE")
        if env is not None:
            try:
                cutoff = int(env)
            except ValueError:
                raise InputShapeError(
                    f"GKM_MAX_DEGREE must be an integer, got {env!r}"
                ) from None
        elif graph is not None:
            cutoff = default_cutoff(len(graph.vertices))
        else:
            cutoff = 20
    if cutoff < 0:
        raise InputShapeError("max degree must be nonnegative")
    return cutoff


def _emit(obj, fmt: str, table_renderer=None):
    if fmt == "table" and table_renderer is not None:
        print(table_renderer(obj))
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))


def _series_table(obj) -> str:
    coeffs = obj["coeffs"]
    width = max(len(str(c)) for c in coeffs + [obj["cutoff"]])
    lines = ["degree  dim".replace("dim", "dim".rjust(width))]
    for d, c in enumerate(coeffs):
        lines.append(f"{d:6d}  {c:{width}d}")
    return "\n".join(lines)


def _checks_table(obj) -> str:
    lines = [f"cutoff {obj['cutoff']}  basic total {sum(obj['basic']['coeffs'])}"
             f"  minimal {'yes' if obj['minimal'] else 'no'}"]
    name_w = max(len(c["name"]) for c in obj["checks"])
    for c in obj["checks"]:
        lines.append(f"{c['name']:<{name_w}}  {c['status']:<12}  {c['detail']}")
    return "\n".join(lines)


def _validation_table(obj) -> str:
    lines = [f"valid: {'yes' if obj['valid'] else 'no'}"]
    name_w = max(len(c["name"]) for c in obj["checks"])
    for c in obj["checks"]:
        status = "pass" if c["passed"] else f"FAIL ({c['reason']})"
        kind = "" if c["mandatory"] else " [advisory]"
        lines.append(f"{c['name']:<{name_w}}  {status}{kind}  {c['detail']}")
    return "\n".join(lines)


def _betti_table(obj) -> str:
    lines = ["degree  betti"]
    for d, b in enumerate(obj["betti"]):
        lines.append(f"{d:6d}  {b:5d}")
    return "\n".join(lines)


def _graph_table(obj) -> str:
    lines = [
        f"rank {obj['rank']}, {len(obj['vertices'])} vertices, {len(obj['edges'])} edges"
    ]
    for v in obj["vertices"]:
        lines.append(f"vertex {v['id']}: isotropy rows {v['isotropy']}")
    for e in obj["edges"]:
        lines.append(
            f"edge {e['id']}: {e['source']} -> {e['target']}, isotropy rows {e['isotropy']}"
        )
    return "\n".join(lines)


def _warn_inconclusive(what: str):
    print(
        f"warning: {what} inconclusive at this cutoff; "
        "increase --max-degree or pass --strict to fail",
        file=sys.stderr,
    )


def _cmd_validate(args) -> int:
    report = validate_graph(_load_graph(args.input))
    _emit(report.to_json(), args.fmt, _validation_table)
    return EXIT_OK if report.valid else EXIT_INPUT


def _cmd_cohomology(args) -> int:
    graph = _load_graph(args.input)
    cutoff = _resolve_cutoff(args.max_degree, graph)
    dims = equivariant_dims(graph, cutoff)
    _emit(dims.to_json(), args.fmt, _series_table)
    return EXIT_OK


def _cmd_basic(args) -> int:
    graph = _load_graph(args.input)
    cutoff = _resolve_cutoff(args.max_degree, graph)
    dims = equivariant_dims(graph, cutoff)
    basic, report = basic_from_equivariant(dims, graph.rank, cutoff)
    out = report.to_json()
    out["rank"] = graph.rank
    _emit(out, args.fmt, lambda o: _series_table(o["series"]) + f"\nverdict: {o['verdict']}")
    if not report.is_polynomial:
        if args.strict:
            return EXIT_INCONCLUSIVE
        _warn_inconclusive("basic series")
    return EXIT_OK


def _cmd_morse_bott(args) -> int:
    data = MorseBottData.from_json(_read_json(args.input))
    if args.max_degree is not None:
        cutoff = _resolve_cutoff(args.max_degree, None)
    else:
        spans = [i + s.cutoff for i, s in data.components]
        cutoff = max([20] + spans)
    series = morse_bott_assemble(data, cutoff)
    _emit(series.to_json(), args.fmt, _series_table)
    return EXIT_OK


def _cmd_gysin(args) -> int:
    data = GysinData.from_json(_read_json(args.input))
    n = len(data.basic_dims) - 1
    if n < 1:
        raise InputShapeError("need basic dimensions up to degree 2n with n >= 1")
    betti = gysin_betti(data, n)
    _emit({"manifold_dim": 2 * n + 1, "betti": list(betti)}, args.fmt, _betti_table)
    return EXIT_OK


def _cmd_toric_skeleton(args) -> int:
    polytope = MomentPolytope.from_json(_read_json(args.input))
    _emit(polytope_skeleton(polytope).to_json(), args.fmt, _graph_table)
    return EXIT_OK


def _cmd_check(args) -> int:
    graph = _load_graph(args.input)
    cutoff = _resolve_cutoff(args.max_degree, graph)
    report = run_checks(graph, cutoff)
    _emit(report.to_json(), args.fmt, _checks_table)
    if report.failed:
        return EXIT_CHECK_FAILED
    if report.inconclusive:
        if args.strict:
            return EXIT_INCONCLUSIVE
        _warn_inconclusive("theorem checks")
    return EXIT_OK


def _require(value, flag: str, name: str):
    if value is None:
        raise InputShapeError(f"example {name!r} requires {flag}")
    return value


def _cmd_example(args) -> int:
    name = args.name
    if name == "simplex":
        obj = builtin_simplex(_require(args.n, "--n", name)).to_json()
    elif name == "fiber-join":
        obj = builtin_fiber_join(
            _require(args.n, "--n", name), _require(args.genus, "--genus", name)
        ).to_json()
    elif name == "hirzebruch":
        obj = builtin_hirzebruch(_require(args.m, "--m", name)).to_json()
    elif name == "stiefel":
        obj = builtin_stiefel().to_json()
    else:  # simplex-polytope
        n = _require(args.n, "--n", name)
        weights = args.weights if args.weights is not None else ["1"] * (n + 1)
        obj = simplex_polytope(n, [rational_from_json(w) for w in weights]).to_json()
    _emit(obj, args.fmt, _graph_table if name != "simplex-polytope" else None)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "cohomology": _cmd_cohomology,
    "basic": _cmd_basic,
    "morse-bott": _cmd_morse_bott,
    "gysin": _cmd_gysin,
    "toric-skeleton": _cmd_toric_skeleton,
    "check": _cmd_check,
    "example": _cmd_example,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (FormalityViolation, GysinInconsistency) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except GkmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
