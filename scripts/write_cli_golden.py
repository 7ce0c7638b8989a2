#!/usr/bin/env python3
"""Write the CLI golden corpus that ``tests/test_cli_golden.py`` replays.

Every run goes in-process through ``gkmcalc.cli.main``.  Into the output
directory (default ``tests/data/cli_golden``) this writes:

* ``<case>.graph.json``: the stdout of ``example`` for builtin cases, which
  is their input graph (fixture cases read their file under ``tests/data``);
* ``<case>.<command>.out`` / ``.err`` / ``.exit``: stdout, stderr and the
  exit code of ``cohomology``, ``basic`` and ``check`` on each case;
* ``<input>``: the documents of ``INPUTS`` that the further runs read;
* ``<run>.out`` / ``.err`` / ``.exit``: the same for each run of ``RUNS``,
  which covers every other subcommand, ``--format table`` on each one,
  ``--strict``, rejected flags, and each status and detail a graph can
  reach in ``validate`` and ``check``;
* ``parser.json``: for the root parser and each subparser, every action's
  option strings, destination, default, choices, nargs, help and
  requiredness (``parser_description``);
* ``cases.json``: the manifest the test replays.

Run it against the checkout whose behaviour is to be pinned, with the
``GKM_MAX_DEGREE`` environment variable unset::

    PYTHONPATH=path/to/checkout/src python3 scripts/write_cli_golden.py [OUTDIR]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

from gkmcalc.cli import build_parser, main

REPO = Path(__file__).resolve().parent.parent

#: case -> (``example`` arguments or a fixture under tests/data, extra flags)
CASES = {
    "simplex3": (["simplex", "--n", "3"], []),
    "fiber_join2_1": (["fiber-join", "--n", "2", "--genus", "1"], []),
    "hirzebruch2": (["hirzebruch", "--m", "2"], []),
    "stiefel": (["stiefel"], []),
    "generic_cube4": ("generic_cube4.json", ["--max-degree", "12"]),
    # a fiber class above the cutoff: the verdicts read inconclusive
    "fiber_degree4_vertex": ("fiber_degree4_vertex.json", ["--max-degree", "3"]),
}

COMMANDS = ("cohomology", "basic", "check")

#: input file -> its JSON document, the ``example`` arguments that print it,
#: or those arguments and the top-level keys to set on what they print (a
#: ``None`` value deletes the key)
INPUTS = {
    "simplex_polytope.json": ["simplex-polytope", "--n", "2", "--weights", "1", "1/2", "3"],
    # two orbits of a 7-manifold, which has at least four
    "simplex1_dim7.graph.json": (["simplex", "--n", "1"], {"manifold_dim": 7}),
    # total four = n+1 for n = 3, but the basic series is 1 + 2t^2 + t^4
    "fiber_join1_0_dim7.graph.json": (["fiber-join", "--n", "1", "--genus", "0"],
                                      {"manifold_dim": 7}),
    "simplex2_no_dim.graph.json": (["simplex", "--n", "2"], {"manifold_dim": None}),
    # two edges per vertex where a 7-manifold wants three: the advisory fails
    "simplex2_dim7.graph.json": (["simplex", "--n", "2"], {"manifold_dim": 7}),
    # an orbit of dimension 5 under a rank-2 torus
    "simplex1_bottom5.graph.json": (["simplex", "--n", "1"], {"bottom_orbit_dim": 5}),
    # two edges between two vertices: the basic series 1 + t^4 reads 1 + 0t^2
    # at cutoff 2, which looks polynomial and undercounts the orbits
    "double_edge.graph.json": {
        "rank": 3,
        "vertices": [{"id": "a", "isotropy": [[0, 1, 0], [0, 0, 1]]},
                     {"id": "b", "isotropy": [[0, 1, 0], [0, 0, 1]]}],
        "edges": [{"id": "e", "source": "a", "target": "b", "isotropy": [[0, 1, 0]]},
                  {"id": "f", "source": "a", "target": "b", "isotropy": [[0, 0, 1]]}],
    },
    # an edge isotropy outside the isotropy of its source
    "containment.graph.json": {
        "rank": 3,
        "vertices": [{"id": "a", "isotropy": [[0, 1, 0], [0, 0, 1]]},
                     {"id": "b", "isotropy": [[1, 0, 0], [0, 0, 1]]}],
        "edges": [{"id": "e", "source": "a", "target": "b", "isotropy": [[1, 1, 0]]}],
    },
    # vertex isotropies of dimensions 1 and 0: a connected graph whose
    # dimensions differ also breaks containment
    "isotropy_dimensions.graph.json": {
        "rank": 2,
        "vertices": [{"id": "a", "isotropy": [[1, 0]]}, {"id": "b", "isotropy": []}],
        "edges": [{"id": "e", "source": "a", "target": "b", "isotropy": []}],
    },
    # two edges of one isotropy at each vertex
    "gkm_condition.graph.json": {
        "rank": 2,
        "vertices": [{"id": "a", "isotropy": [[1, 0]]}, {"id": "b", "isotropy": [[0, 1]]}],
        "edges": [{"id": "e", "source": "a", "target": "b", "isotropy": []},
                  {"id": "f", "source": "a", "target": "b", "isotropy": []}],
    },
    # an edge fiber with no pullbacks: the default identities of the point
    # fibers do not land in it
    "fiber_maps.graph.json": {
        "rank": 2,
        "vertices": [{"id": "a", "isotropy": [[1, 0]]}, {"id": "b", "isotropy": [[0, 1]]}],
        "edges": [{"id": "e", "source": "a", "target": "b", "isotropy": [],
                   "edge_fiber": {"dims": [[0, 1], [2, 1]]}}],
    },
    # a disconnected graph with a self-loop: two mandatory checks fail
    "invalid.graph.json": {
        "rank": 2,
        "vertices": [{"id": "a", "isotropy": [[1, 0]]}, {"id": "b", "isotropy": [[0, 1]]},
                     {"id": "c", "isotropy": [[1, 1]]}],
        "edges": [{"id": "e", "source": "a", "target": "b", "isotropy": []},
                  {"id": "l", "source": "c", "target": "c", "isotropy": []}],
    },
    "components.json": {"components": [
        {"index": 0, "series": {"cutoff": 2, "coeffs": [1, 0, 1]}},
        {"index": 2, "series": {"cutoff": 4, "coeffs": [1, 0, 2, 0, 1]}},
    ]},
    "gysin.json": {"basic_dims": [1, 2, 1], "euler_mult": [[[1], [0]], [[1, 0]]]},
    # the Euler map out of the top degree must land in zero
    "gysin_top.json": {"basic_dims": [1, 1], "euler_mult": [[[1]], [[1]]]},
    # a zero top map with a row: still not a map into zero
    "gysin_top_zero_row.json": {"basic_dims": [1, 1], "euler_mult": [[[1]], [[0]]]},
    # an Euler row longer than its source degree
    "gysin_ragged.json": {"basic_dims": [1, 1], "euler_mult": [[[1, 2]]]},
    # a 0x1 map where a 1x1 one is due
    "gysin_short.json": {"basic_dims": [1, 1], "euler_mult": [[]]},
    # maps into and out of a zero degree: 0x1, then 1x0
    "gysin_empty_degree.json": {"basic_dims": [1, 0, 1], "euler_mult": [[], [[]]]},
    # one map where two are due
    "gysin_undercount.json": {"basic_dims": [1, 2, 1], "euler_mult": [[[1], [0]]]},
}

#: run -> (subcommand, input file or None, further arguments); a file named
#: ``<case>.graph.json`` or ``../<fixture>`` is one of the cases' inputs
RUNS = {
    "validate": ("validate", "hirzebruch2.graph.json", []),
    "validate_invalid": ("validate", "invalid.graph.json", []),
    "validate_edge_count": ("validate", "simplex3.graph.json", []),
    "validate_edge_count_advisory": ("validate", "simplex2_dim7.graph.json", []),
    "validate_containment": ("validate", "containment.graph.json", []),
    "validate_isotropy_dimensions": ("validate", "isotropy_dimensions.graph.json", []),
    "validate_gkm_condition": ("validate", "gkm_condition.graph.json", []),
    "validate_fiber_maps": ("validate", "fiber_maps.graph.json", []),
    "validate_bottom_orbit_dim": ("validate", "simplex1_bottom5.graph.json", []),
    "check_invalid": ("check", "invalid.graph.json", []),
    "check_below_bound": ("check", "simplex1_dim7.graph.json", ["--max-degree", "10"]),
    "check_below_bound_cutoff": ("check", "simplex1_dim7.graph.json", ["--max-degree", "2"]),
    "check_partial_bound": ("check", "simplex3.graph.json", ["--max-degree", "6"]),
    "check_not_minimal": ("check", "fiber_join1_0_dim7.graph.json", ["--max-degree", "12"]),
    "check_no_manifold_dim": ("check", "simplex2_no_dim.graph.json", []),
    "check_orbit_undercount": ("check", "double_edge.graph.json", ["--max-degree", "2"]),
    "morse_bott": ("morse-bott", "components.json", []),
    "morse_bott_cutoff": ("morse-bott", "components.json", ["--max-degree", "5"]),
    "gysin": ("gysin", "gysin.json", []),
    "gysin_top": ("gysin", "gysin_top.json", []),
    "gysin_top_zero_row": ("gysin", "gysin_top_zero_row.json", []),
    "gysin_ragged": ("gysin", "gysin_ragged.json", []),
    "gysin_short": ("gysin", "gysin_short.json", []),
    "gysin_empty_degree": ("gysin", "gysin_empty_degree.json", []),
    "gysin_undercount": ("gysin", "gysin_undercount.json", []),
    "toric_skeleton": ("toric-skeleton", "simplex_polytope.json", []),
    "example_simplex": ("example", None, ["simplex", "--n", "2"]),
    "example_fiber_join": ("example", None, ["fiber-join", "--n", "1", "--genus", "2"]),
    "example_hirzebruch": ("example", None, ["hirzebruch", "--m", "1"]),
    "example_stiefel": ("example", None, ["stiefel"]),
    "example_simplex_polytope": ("example", None, ["simplex-polytope", "--n", "3"]),
    "example_missing_flag": ("example", None, ["fiber-join", "--n", "2"]),
    "example_rejected_flag": ("example", None, ["stiefel", "--m", "2"]),
    "table_validate": ("validate", "invalid.graph.json", ["--format", "table"]),
    "table_cohomology": ("cohomology", "hirzebruch2.graph.json",
                         ["--max-degree", "6", "--format", "table"]),
    "table_basic": ("basic", "../fiber_degree4_vertex.json", ["--max-degree", "3",
                                                                "--format", "table"]),
    "table_morse_bott": ("morse-bott", "components.json", ["--format", "table"]),
    "table_gysin": ("gysin", "gysin.json", ["--format", "table"]),
    "table_toric_skeleton": ("toric-skeleton", "simplex_polytope.json", ["--format", "table"]),
    "table_check": ("check", "hirzebruch2.graph.json", ["--format", "table"]),
    "table_example_graph": ("example", None, ["hirzebruch", "--m", "2", "--format", "table"]),
    "table_example_polytope": ("example", None, ["simplex-polytope", "--n", "2", "--weights",
                                                 "1", "1/2", "3", "--format", "table"]),
    "strict_basic": ("basic", "../fiber_degree4_vertex.json", ["--max-degree", "3", "--strict"]),
    "strict_check": ("check", "../fiber_degree4_vertex.json", ["--max-degree", "3", "--strict"]),
    "unknown_flag": ("cohomology", "simplex3.graph.json", ["--frobnicate"]),
}


def run(argv):
    """``(exit code, stdout, stderr)`` of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def parser_description():
    """Each parser's actions, the root first and then the subcommands in order."""
    root = build_parser()
    parsers = {"": root}
    for action in root._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers.update(action.choices)
    description = {}
    for name, parser in parsers.items():
        actions = []
        for action in parser._actions:
            entry = {
                "option_strings": action.option_strings,
                "dest": action.dest,
                "default": action.default,
                "choices": None if action.choices is None else list(action.choices),
                "nargs": action.nargs,
                "help": action.help,
                "required": action.required,
            }
            if isinstance(action, argparse._SubParsersAction):
                entry["subcommand_help"] = [a.help for a in action._choices_actions]
            actions.append(entry)
        description[name] = {"prog": parser.prog, "description": parser.description,
                             "actions": actions}
    return description


def input_path(outdir: Path, source: str) -> Path:
    """A fixture ``../<name>`` lies under tests/data, any other input in ``outdir``."""
    if source.startswith("../"):
        return REPO / "tests" / "data" / source[3:]
    return outdir / source


def write_run(stem: Path, argv):
    code, out, err = run(argv)
    Path(f"{stem}.out").write_text(out)
    Path(f"{stem}.err").write_text(err)
    Path(f"{stem}.exit").write_text(f"{code}\n")


def write(outdir: Path):
    if "GKM_MAX_DEGREE" in os.environ:
        sys.exit("unset GKM_MAX_DEGREE: the corpus pins the default cutoffs")
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for case, (source, flags) in CASES.items():
        if isinstance(source, list):
            code, text, _ = run(["example", *source])
            assert code == 0, (case, code)
            graph = outdir / f"{case}.graph.json"
            graph.write_text(text)
            manifest[case] = {"example": source, "input": graph.name, "flags": flags}
        else:
            graph = REPO / "tests" / "data" / source
            manifest[case] = {"example": None, "input": f"../{source}", "flags": flags}
        for command in COMMANDS:
            write_run(outdir / f"{case}.{command}", [command, str(graph), *flags])
    for name, doc in INPUTS.items():
        if isinstance(doc, dict):
            text = json.dumps(doc, indent=2) + "\n"
        else:
            argv, changes = (doc, {}) if isinstance(doc, list) else doc
            code, text, _ = run(["example", *argv])
            assert code == 0, (name, code)
            if changes:
                doc = {k: v for k, v in {**json.loads(text), **changes}.items() if v is not None}
                text = json.dumps(doc, indent=2) + "\n"
        (outdir / name).write_text(text)
    runs = {}
    for name, (command, source, flags) in RUNS.items():
        path = [] if source is None else [str(input_path(outdir, source))]
        write_run(outdir / name, [command, *path, *flags])
        runs[name] = {"command": command, "input": source, "flags": flags}
    (outdir / "parser.json").write_text(json.dumps(parser_description(), indent=2) + "\n")
    (outdir / "cases.json").write_text(json.dumps(
        {"commands": list(COMMANDS), "cases": manifest, "runs": runs}, indent=2) + "\n")


if __name__ == "__main__":
    write(Path(sys.argv[1]) if len(sys.argv) > 1 else REPO / "tests" / "data" / "cli_golden")
