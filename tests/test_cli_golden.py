"""CLI outputs pinned byte for byte.

``tests/data/cli_golden`` holds stdout, stderr and the exit code of
``cohomology``, ``basic`` and ``check`` on a few builtin examples and one
generic toric skeleton, of every other subcommand (each builtin example,
``--format table``, ``--strict`` and a rejected flag among them), of
``validate`` and ``check`` on graphs that reach every status and detail a
graph can reach, and a description of every parser's arguments, written by
``scripts/write_cli_golden.py``.  A change of how the kernel is computed
or of how the CLI is wired must leave every byte as it was.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from gkmcalc.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden"
MANIFEST = json.loads((GOLDEN / "cases.json").read_text())
RUNS = [(case, command) for case in MANIFEST["cases"] for command in MANIFEST["commands"]]

_spec = importlib.util.spec_from_file_location(
    "write_cli_golden", Path(__file__).parents[1] / "scripts" / "write_cli_golden.py")
writer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(writer)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_pinned(stem: Path, code, out, err):
    assert out.encode() == Path(f"{stem}.out").read_bytes()
    assert err.encode() == Path(f"{stem}.err").read_bytes()
    assert f"{code}\n" == Path(f"{stem}.exit").read_text()


@pytest.mark.parametrize("case", [c for c, spec in MANIFEST["cases"].items() if spec["example"]])
def test_example_input_unchanged(case, capsys):
    spec = MANIFEST["cases"][case]
    code, out, err = run_cli(capsys, ["example", *spec["example"]])
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / spec["input"]).read_bytes()


@pytest.mark.parametrize("case, command", RUNS)
def test_cli_output_unchanged(case, command, capsys, monkeypatch):
    monkeypatch.delenv("GKM_MAX_DEGREE", raising=False)
    spec = MANIFEST["cases"][case]
    code, out, err = run_cli(capsys, [command, str(GOLDEN / spec["input"]), *spec["flags"]])
    assert_pinned(GOLDEN / f"{case}.{command}", code, out, err)


@pytest.mark.parametrize("name", MANIFEST["runs"])
def test_cli_run_unchanged(name, capsys, monkeypatch):
    monkeypatch.delenv("GKM_MAX_DEGREE", raising=False)
    spec = MANIFEST["runs"][name]
    path = [] if spec["input"] is None else [str(GOLDEN / spec["input"])]
    code, out, err = run_cli(capsys, [spec["command"], *path, *spec["flags"]])
    assert_pinned(GOLDEN / name, code, out, err)


def test_parser_unchanged():
    # every subcommand in order, and each argument's option strings, dest,
    # default, choices, nargs, help and requiredness; --help prints these
    recorded = json.loads((GOLDEN / "parser.json").read_text())
    assert json.loads(json.dumps(writer.parser_description())) == recorded

