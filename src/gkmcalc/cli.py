"""Command-line front end.

Subcommands::

    validate FILE                     graph validation report
    cohomology FILE --max-degree D    equivariant graded dimensions
    basic FILE --max-degree D         basic cohomology series + report
    morse-bott FILE                   assemble sum_B t^index P_B
    gysin FILE                        ordinary Betti numbers
    toric-skeleton FILE               moment polytope -> graph JSON
    check FILE --max-degree D         theorem checks
    example NAME [params]             builtin graph (or polytope) JSON

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
    for name, (help_text, _, _, _, cutoff, strict) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="input file, or - for stdin")
        p.add_argument("--format", choices=("json", "table"), default="json", dest="fmt")
        if cutoff is not None:
            p.add_argument(
                "--max-degree",
                type=int,
                default=None,
                help="series cutoff; defaults to the GKM_MAX_DEGREE environment "
                f"variable, else {cutoff[1]}",
            )
        if strict is not None:
            p.add_argument("--strict", action="store_true", help=strict[0])
    ex = sub.add_parser("example", help="emit a builtin example")
    ex.add_argument("name", choices=tuple(_EXAMPLES))
    for flag, spec in _EXAMPLE_FLAGS.items():
        ex.add_argument(f"--{flag}", **spec)
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
    cutoff = arg
    if cutoff is None:
        env = os.environ.get("GKM_MAX_DEGREE")
        try:
            cutoff = default if env is None else int(env)
        except ValueError:
            raise InputShapeError(f"GKM_MAX_DEGREE must be an integer, got {env!r}") from None
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


def _validate(graph, _cutoff):
    report = validate_graph(graph)
    return report.to_json(), EXIT_OK if report.valid else EXIT_INPUT


def _basic(graph, cutoff):
    dims = equivariant_dims(graph, cutoff)
    report = basic_from_equivariant(dims, graph.rank, top_fiber_degree=graph.top_fiber_degree)
    code = EXIT_OK if report.is_polynomial else EXIT_INCONCLUSIVE
    return {**report.to_json(), "rank": graph.rank}, code


def _gysin(data, _cutoff):
    betti = gysin_betti(data)
    return {"manifold_dim": len(betti) - 1, "betti": list(betti)}, EXIT_OK


def _check(graph, cutoff):
    report = run_checks(graph, cutoff)
    if report.failed:
        return report.to_json(), EXIT_CHECK_FAILED
    return report.to_json(), EXIT_INCONCLUSIVE if report.inconclusive else EXIT_OK


def _read_graph(doc):
    # looks graph_from_json up when called: pipebench's tracer swaps a
    # timing wrapper into this module's globals
    return graph_from_json(doc)


_GRAPH_CUTOFF = (lambda graph: default_cutoff(len(graph.vertices)), "max(20, 2*(vertices+2))")

# each subcommand but example, in the order of --help: its help, its reader
# (JSON document -> input), its compute step ((input, cutoff) -> (JSON
# object, exit code)), its table renderer, its default cutoff of an input
# with that rule's help (None: no --max-degree), and its --strict help with
# what may be inconclusive (None: no --strict)
_COMMANDS = {
    "validate": ("validate a GKM graph", _read_graph, _validate, _validation_table, None, None),
    "cohomology": (
        "equivariant graded dimensions", _read_graph,
        lambda graph, cutoff: (equivariant_dims(graph, cutoff).to_json(), EXIT_OK),
        _series_table, _GRAPH_CUTOFF, None,
    ),
    "basic": (
        "basic cohomology series", _read_graph, _basic,
        lambda obj: _series_table(obj["series"]) + f"\nverdict: {obj['verdict']}",
        _GRAPH_CUTOFF,
        ("exit 3 when the series is not yet polynomial at the cutoff", "basic series"),
    ),
    "morse-bott": (
        "assemble a Morse-Bott series", MorseBottData.from_json,
        lambda data, cutoff: (morse_bott_assemble(data, cutoff).to_json(), EXIT_OK),
        _series_table,
        (lambda data: max([20] + [i + s.cutoff for i, s in data.components]),
         "max(20, index + cutoff) over the components"),
        None,
    ),
    "gysin": ("Betti numbers from Gysin data", GysinData.from_json, _gysin, _betti_table,
              None, None),
    "toric-skeleton": (
        "one-skeleton of a moment polytope", MomentPolytope.from_json,
        lambda polytope, _cutoff: (polytope_skeleton(polytope).to_json(), EXIT_OK),
        _graph_table, None, None,
    ),
    "check": (
        "run the theorem checks", _read_graph, _check, _checks_table, _GRAPH_CUTOFF,
        ("exit 3 when any check is inconclusive at the cutoff", "theorem checks"),
    ),
}


def _simplex_polytope(args):
    weights = args.weights if args.weights is not None else ["1"] * (args.n + 1)
    return simplex_polytope(args.n, [rational_from_json(w) for w in weights])


# each flag of example and its argparse keywords
_EXAMPLE_FLAGS = {
    "n": {"type": int, "help": "simplex/fiber-join/simplex-polytope size"},
    "genus": {"type": int, "help": "fiber-join surface genus"},
    "m": {"type": int, "help": "hirzebruch Euler parameter"},
    "weights": {"nargs": "+",
                "help": "ellipsoid weights a_0..a_n (rationals) for simplex-polytope"},
}

# each example's required flags, its optional flags, its builder and its
# table renderer
_EXAMPLES = {
    "simplex": (("n",), (), lambda args: builtin_simplex(args.n), _graph_table),
    "fiber-join": (("n", "genus"), (), lambda args: builtin_fiber_join(args.n, args.genus),
                   _graph_table),
    "hirzebruch": (("m",), (), lambda args: builtin_hirzebruch(args.m), _graph_table),
    "stiefel": ((), (), lambda args: builtin_stiefel(), _graph_table),
    "simplex-polytope": (("n",), ("weights",), _simplex_polytope, _polytope_table),
}


def _example(args):
    """The JSON object of the example ``args`` names, and its table renderer."""
    required, optional, build, table = _EXAMPLES[args.name]
    for flag in required:
        if getattr(args, flag) is None:
            raise InputShapeError(f"example {args.name!r} requires --{flag}")
    for flag in _EXAMPLE_FLAGS:
        if getattr(args, flag) is not None and flag not in required + optional:
            raise InputShapeError(f"example {args.name!r} does not take --{flag}")
    return build(args).to_json(), table


def _run(args) -> int:
    """Read, resolve the cutoff, compute and print one subcommand; its exit code."""
    if args.command == "example":
        obj, table = _example(args)
        code = EXIT_OK
        strict = None
    else:
        _, read, compute, table, rule, strict = _COMMANDS[args.command]
        data = read(_read_json(args.input))
        cutoff = None
        if rule is not None:
            cutoff = _resolve_cutoff(args.max_degree, rule[0](data))
        obj, code = compute(data, cutoff)
    _emit(obj, args.fmt, table)
    if code == EXIT_INCONCLUSIVE and not args.strict:
        print(
            f"warning: {strict[1]} inconclusive at this cutoff; "
            "increase --max-degree or pass --strict to fail",
            file=sys.stderr,
        )
        return EXIT_OK
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
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
