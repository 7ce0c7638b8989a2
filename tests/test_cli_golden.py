"""CLI outputs pinned byte for byte.

``tests/data/cli_golden`` holds stdout, stderr and the exit code of
``cohomology``, ``basic`` and ``check`` on a few builtin examples and one
generic toric skeleton, written by ``scripts/write_cli_golden.py``.  A
change of how the kernel is computed must leave every byte as it was.
"""

import json
from pathlib import Path

import pytest

from gkmcalc.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden"
MANIFEST = json.loads((GOLDEN / "cases.json").read_text())
RUNS = [(case, command) for case in MANIFEST["cases"] for command in MANIFEST["commands"]]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    stem = GOLDEN / f"{case}.{command}"
    assert out.encode() == Path(f"{stem}.out").read_bytes()
    assert err.encode() == Path(f"{stem}.err").read_bytes()
    assert f"{code}\n" == Path(f"{stem}.exit").read_text()
