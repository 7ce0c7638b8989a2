#!/usr/bin/env python3
"""Write the CLI golden corpus that ``tests/test_cli_golden.py`` replays.

For every case below this runs ``cohomology``, ``basic`` and ``check``
in-process through ``gkmcalc.cli.main`` and writes, into the output
directory (default ``tests/data/cli_golden``):

* ``<case>.graph.json``: the stdout of ``example`` for builtin cases, which
  is their input graph (fixture cases read their file under ``tests/data``);
* ``<case>.<command>.out`` / ``.err`` / ``.exit``: stdout, stderr and the
  exit code of each command on that graph;
* ``cases.json``: the manifest the test replays.

Run it against the checkout whose behaviour is to be pinned, with the
``GKM_MAX_DEGREE`` environment variable unset::

    PYTHONPATH=path/to/checkout/src python3 scripts/write_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from gkmcalc.cli import main

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


def run(argv):
    """``(exit code, stdout, stderr)`` of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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
            code, out, err = run([command, str(graph), *flags])
            stem = outdir / f"{case}.{command}"
            Path(f"{stem}.out").write_text(out)
            Path(f"{stem}.err").write_text(err)
            Path(f"{stem}.exit").write_text(f"{code}\n")
    (outdir / "cases.json").write_text(
        json.dumps({"commands": list(COMMANDS), "cases": manifest}, indent=2) + "\n"
    )


if __name__ == "__main__":
    write(Path(sys.argv[1]) if len(sys.argv) > 1 else REPO / "tests" / "data" / "cli_golden")
