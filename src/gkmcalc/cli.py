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
given (a warning on stderr otherwise).  Standard output closed by its
reader also exits 1, silently.
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
from .gkmcore import equivariant_dims, graph_from_json, validate_graph
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

    def add_common(p, run, cutoff_default=None):
        p.set_defaults(run=run)
        p.add_argument("input", help="input file, or - for stdin")
        p.add_argument(
            "--format", choices=("json", "table"), default="json", dest="fmt"
        )
        if cutoff_default is not None:
            p.add_argument(
                "--max-degree",
                type=int,
                default=None,
                help="series cutoff; defaults to the GKM_MAX_DEGREE environment "
                f"variable, else {cutoff_default}",
            )

    graph_cutoff = "max(20, 2*(vertices+2))"
    add_common(sub.add_parser("validate", help="validate a GKM graph"), _cmd_validate)
    add_common(sub.add_parser("cohomology", help="equivariant graded dimensions"),
               _cmd_cohomology, graph_cutoff)
    bs = sub.add_parser("basic", help="basic cohomology series")
    add_common(bs, _cmd_basic, graph_cutoff)
    bs.add_argument("--strict", action="store_true",
                    help="exit 3 when the series is not yet polynomial at the cutoff")
    add_common(sub.add_parser("morse-bott", help="assemble a Morse-Bott series"),
               _cmd_morse_bott, "max(20, index + cutoff) over the components")
    add_common(sub.add_parser("gysin", help="Betti numbers from Gysin data"), _cmd_gysin)
    add_common(sub.add_parser("toric-skeleton", help="one-skeleton of a moment polytope"),
               _cmd_toric_skeleton)
    ck = sub.add_parser("check", help="run the theorem checks")
    add_common(ck, _cmd_check, graph_cutoff)
    ck.add_argument("--strict", action="store_true",
                    help="exit 3 when any check is inconclusive at the cutoff")

    ex = sub.add_parser("example", help="emit a builtin example")
    ex.set_defaults(run=_cmd_example)
    ex.add_argument("name", choices=tuple(_EXAMPLES))
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
            # under a C/POSIX locale stdin decodes with surrogateescape, which
            # turns bytes that are not UTF-8 into lone surrogates
            text.encode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeError) as exc:
        raise InputShapeError(f"cannot read {path!r}: {exc}") from None
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputShapeError(f"malformed JSON in {path!r}: {exc}") from None
    except ValueError as exc:  # an integer past Python's str-to-int digit limit
        raise InputShapeError(f"cannot read {path!r}: {exc}") from None


def _resolve_cutoff(arg: int | None, default: int) -> int:
    """The ``--max-degree`` flag, else ``GKM_MAX_DEGREE``, else the default."""
    if arg is not None:
        cutoff = arg
    else:
        env = os.environ.get("GKM_MAX_DEGREE")
        if env is None:
            cutoff = default
        else:
            try:
                cutoff = int(env)
            except ValueError:
                raise InputShapeError(
                    f"GKM_MAX_DEGREE must be an integer, got {env!r}"
                ) from None
    if cutoff < 0:
        raise InputShapeError("max degree must be nonnegative")
    return cutoff


def _emit(obj, fmt: str, table_renderer):
    try:
        text = table_renderer(obj) if fmt == "table" else json.dumps(obj, indent=2, sort_keys=True)
    except ValueError as exc:  # an integer past Python's int-to-str digit limit
        raise InputShapeError(f"cannot write the result: {exc}") from None
    print(text)


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


def _polytope_table(obj) -> str:
    def vector(entries):
        return "(" + ", ".join(str(x) for x in entries) + ")"

    lines = [
        f"rank {obj['rank']}, {len(obj['vertices'])} vertices, {len(obj['facets'])} facets"
    ]
    for v in obj["vertices"]:
        lines.append(f"vertex {v['id']}: coords {vector(v['coords'])}")
    for i, f in enumerate(obj["facets"]):
        lines.append(
            f"facet {i}: normal {vector(f['normal'])}, vertices {', '.join(f['vertices'])}"
        )
    return "\n".join(lines)


def _warn_inconclusive(what: str):
    print(
        f"warning: {what} inconclusive at this cutoff; "
        "increase --max-degree or pass --strict to fail",
        file=sys.stderr,
    )


def _cmd_validate(args) -> int:
    report = validate_graph(graph_from_json(_read_json(args.input)))
    _emit(report.to_json(), args.fmt, _validation_table)
    return EXIT_OK if report.valid else EXIT_INPUT


def _cmd_cohomology(args) -> int:
    graph = graph_from_json(_read_json(args.input))
    cutoff = _resolve_cutoff(args.max_degree, default_cutoff(len(graph.vertices)))
    dims = equivariant_dims(graph, cutoff)
    _emit(dims.to_json(), args.fmt, _series_table)
    return EXIT_OK


def _cmd_basic(args) -> int:
    graph = graph_from_json(_read_json(args.input))
    cutoff = _resolve_cutoff(args.max_degree, default_cutoff(len(graph.vertices)))
    dims = equivariant_dims(graph, cutoff)
    report = basic_from_equivariant(dims, graph.rank, top_fiber_degree=graph.top_fiber_degree)
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
    cutoff = _resolve_cutoff(
        args.max_degree, max([20] + [i + s.cutoff for i, s in data.components])
    )
    series = morse_bott_assemble(data, cutoff)
    _emit(series.to_json(), args.fmt, _series_table)
    return EXIT_OK


def _cmd_gysin(args) -> int:
    data = GysinData.from_json(_read_json(args.input))
    n = len(data.basic_dims) - 1
    if n < 1:
        raise InputShapeError("need basic dimensions up to degree 2n with n >= 1")
    _emit({"manifold_dim": 2 * n + 1, "betti": list(gysin_betti(data))}, args.fmt, _betti_table)
    return EXIT_OK


def _cmd_toric_skeleton(args) -> int:
    polytope = MomentPolytope.from_json(_read_json(args.input))
    _emit(polytope_skeleton(polytope).to_json(), args.fmt, _graph_table)
    return EXIT_OK


def _cmd_check(args) -> int:
    graph = graph_from_json(_read_json(args.input))
    cutoff = _resolve_cutoff(args.max_degree, default_cutoff(len(graph.vertices)))
    report = run_checks(graph, cutoff)
    _emit(report.to_json(), args.fmt, _checks_table)
    if report.failed:
        return EXIT_CHECK_FAILED
    if report.inconclusive:
        if args.strict:
            return EXIT_INCONCLUSIVE
        _warn_inconclusive("theorem checks")
    return EXIT_OK


def _simplex_polytope(args):
    weights = args.weights if args.weights is not None else ["1"] * (args.n + 1)
    return simplex_polytope(args.n, [rational_from_json(w) for w in weights])


# each example's required flags, its optional flags and its builder
_EXAMPLES = {
    "simplex": (("n",), (), lambda args: builtin_simplex(args.n)),
    "fiber-join": (("n", "genus"), (), lambda args: builtin_fiber_join(args.n, args.genus)),
    "hirzebruch": (("m",), (), lambda args: builtin_hirzebruch(args.m)),
    "stiefel": ((), (), lambda args: builtin_stiefel()),
    "simplex-polytope": (("n",), ("weights",), _simplex_polytope),
}


def _cmd_example(args) -> int:
    name = args.name
    required, optional, build = _EXAMPLES[name]
    for flag in required:
        if getattr(args, flag) is None:
            raise InputShapeError(f"example {name!r} requires --{flag}")
    for flag in ("n", "genus", "m", "weights"):
        if getattr(args, flag) is not None and flag not in required + optional:
            raise InputShapeError(f"example {name!r} does not take --{flag}")
    table = _polytope_table if name == "simplex-polytope" else _graph_table
    _emit(build(args).to_json(), args.fmt, table)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except (FormalityViolation, GysinInconsistency) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except GkmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull so
        # that the interpreter's flush at exit stays silent
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return EXIT_INPUT
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
