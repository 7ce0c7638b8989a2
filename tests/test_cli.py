"""Tests for the command-line interface.

Everything runs in-process through ``gkmcalc.cli.main`` with captured
stdout, except the closed-stdout test, which needs a real pipe;
determinism is asserted on raw output bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gkmcalc
from gkmcalc.cli import main


def run_cli(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DATA = Path(__file__).parent / "data"

#: Python's int/str conversion digit limit, 0 where there is none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
#: an integer of half the limit's digits: its square is past the limit
HALF = int("7" * (DIGIT_LIMIT // 2 + 1))


def triangle(normals) -> str:
    """A moment triangle in rank 3 with the given facet normals, as JSON."""
    return json.dumps({
        "rank": 3,
        "vertices": [{"id": v, "coords": c} for v, c in
                     (("a", [1, 0, 0]), ("b", [0, 1, 0]), ("c", [0, 0, 1]))],
        "facets": [{"normal": n, "vertices": vs}
                   for n, vs in zip(normals, (["a", "b"], ["b", "c"], ["a", "c"]))],
    })


@pytest.fixture
def simplex2_json(capsys):
    code, out, _ = run_cli(capsys, "example", "simplex", "--n", "2")
    assert code == 0
    return out


class TestExample:
    def test_simplex_emits_graph(self, capsys):
        code, out, err = run_cli(capsys, "example", "simplex", "--n", "1")
        assert code == 0 and not err
        obj = json.loads(out)
        assert obj["rank"] == 2
        assert len(obj["vertices"]) == 2

    def test_missing_parameter(self, capsys):
        code, _, err = run_cli(capsys, "example", "simplex")
        assert code == 1
        assert err.startswith("error:")

    def test_stiefel(self, capsys):
        code, out, _ = run_cli(capsys, "example", "stiefel")
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 4

    def test_simplex_polytope_weights(self, capsys):
        code, out, _ = run_cli(
            capsys, "example", "simplex-polytope", "--n", "2",
            "--weights", "1", "1/2", "3",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["vertices"][1]["coords"] == [0, 2, 0]

    def test_unknown_example(self, capsys):
        code, _, err = run_cli(capsys, "example", "torus")
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("argv, extra", [
        (["simplex", "--n", "2"], ["--weights", "1", "2", "3"]),
        (["fiber-join", "--n", "1", "--genus", "1"], ["--m", "2"]),
        (["hirzebruch", "--m", "2"], ["--genus", "1"]),
        (["stiefel"], ["--n", "3"]),
        (["simplex-polytope", "--n", "1", "--weights", "1", "2"], ["--genus", "0"]),
    ])
    def test_a_flag_the_example_does_not_take(self, capsys, argv, extra):
        # each example runs with the flags it takes and refuses one more
        assert run_cli(capsys, "example", *argv)[0] == 0
        code, out, err = run_cli(capsys, "example", *argv, *extra)
        assert (code, out) == (1, "")
        assert err == f"error: example {argv[0]!r} does not take {extra[0]}\n"

    @pytest.mark.parametrize("argv, flag", [
        (["simplex"], "--n"),
        (["fiber-join", "--genus", "1"], "--n"),
        # a missing flag is named before a flag the example does not take
        (["fiber-join", "--n", "1", "--m", "2"], "--genus"),
        (["hirzebruch"], "--m"),
        (["simplex-polytope", "--weights", "1", "2"], "--n"),
    ])
    def test_a_flag_the_example_requires(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "example", *argv)
        assert (code, out) == (1, "")
        assert err == f"error: example {argv[0]!r} requires {flag}\n"


class TestPipelines:
    def test_cohomology_pipe(self, capsys, monkeypatch, simplex2_json):
        code, out, _ = run_cli(
            capsys, "cohomology", "-", "--max-degree", "8",
            stdin=simplex2_json, monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out) == {"cutoff": 8, "coeffs": [1, 0, 3, 0, 6, 0, 9, 0, 12]}

    def test_basic_pipe(self, capsys, monkeypatch, simplex2_json):
        code, out, _ = run_cli(
            capsys, "basic", "-", "--max-degree", "12",
            stdin=simplex2_json, monkeypatch=monkeypatch,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["series"]["coeffs"][:6] == [1, 0, 1, 0, 1, 0]
        assert obj["total"] == 3
        assert obj["verdict"] == "polynomial up to cutoff"

    def test_check_pipe_minimal(self, capsys, monkeypatch, simplex2_json):
        code, out, _ = run_cli(
            capsys, "check", "-", "--max-degree", "12",
            stdin=simplex2_json, monkeypatch=monkeypatch,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["minimal"] is True
        assert all(c["status"] == "pass" for c in obj["checks"])

    def test_check_fails_below_the_minimal_orbit_count(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "example", "simplex", "--n", "1")
        assert code == 0
        graph = json.loads(out)
        graph["manifold_dim"] = 7
        code, out, _ = run_cli(
            capsys, "check", "-", "--max-degree", "10",
            stdin=json.dumps(graph), monkeypatch=monkeypatch,
        )
        assert code == 2
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["closed_orbit_lower_bound"]["status"] == "fail"
        assert checks["minimal_orbit_count"]["status"] == "fail"
        assert checks["minimal_orbit_count"]["detail"] == "total 2 is below the minimum 4"

    def test_round_trip_graph(self, capsys, monkeypatch, simplex2_json):
        code, out, _ = run_cli(
            capsys, "validate", "-", stdin=simplex2_json, monkeypatch=monkeypatch
        )
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_toric_skeleton_pipe(self, capsys, monkeypatch):
        code, poly, _ = run_cli(
            capsys, "example", "simplex-polytope", "--n", "2", "--weights", "1", "2", "3"
        )
        assert code == 0
        code, skel, _ = run_cli(
            capsys, "toric-skeleton", "-", stdin=poly, monkeypatch=monkeypatch
        )
        assert code == 0
        code, direct, _ = run_cli(capsys, "example", "simplex", "--n", "2")
        assert code == 0
        assert json.loads(skel) == json.loads(direct)

    def test_toric_skeleton_rational_isotropies(self, capsys, monkeypatch):
        # isotropies whose RREF has fractional entries are written as the
        # rational RREF, byte for byte, and the output validates when read back
        poly = {
            "rank": 3,
            "vertices": [{"id": v, "coords": c} for v, c in
                         (("a", [1, 0, 0]), ("b", [0, 1, 0]), ("c", [0, 0, 1]))],
            "facets": [{"normal": [2, 1, 0], "vertices": ["a", "b"]},
                       {"normal": [0, 3, 1], "vertices": ["b", "c"]},
                       {"normal": ["1/2", 0, 3], "vertices": ["a", "c"]}],
        }
        code, skel, _ = run_cli(
            capsys, "toric-skeleton", "-", stdin=json.dumps(poly), monkeypatch=monkeypatch
        )
        assert code == 0
        expected = {
            "bottom_orbit_dim": 1,
            "edges": [
                {"id": "a|b", "isotropy": [[1, "1/2", 0]], "source": "a", "target": "b"},
                {"id": "a|c", "isotropy": [[1, 0, 6]], "source": "a", "target": "c"},
                {"id": "b|c", "isotropy": [[0, 1, "1/3"]], "source": "b", "target": "c"},
            ],
            "manifold_dim": 5,
            "rank": 3,
            "vertices": [
                {"id": "a", "isotropy": [[1, 0, 6], [0, 1, -12]]},
                {"id": "b", "isotropy": [[1, 0, "-1/6"], [0, 1, "1/3"]]},
                {"id": "c", "isotropy": [[1, 0, 6], [0, 1, "1/3"]]},
            ],
        }
        assert skel == json.dumps(expected, indent=2, sort_keys=True) + "\n"
        code, validated, _ = run_cli(
            capsys, "validate", "-", stdin=skel, monkeypatch=monkeypatch
        )
        assert code == 0 and json.loads(validated)["valid"] is True


class TestExitCodes:
    def test_disconnected_graph(self, capsys, monkeypatch, tmp_path):
        bad = {
            "rank": 2,
            "vertices": [
                {"id": "a", "isotropy": [[1, 0]]},
                {"id": "b", "isotropy": [[0, 1]]},
                {"id": "c", "isotropy": [[1, 1]]},
            ],
            "edges": [{"id": "e", "source": "a", "target": "b", "isotropy": []}],
        }
        path = tmp_path / "disconnected.json"
        path.write_text(json.dumps(bad))
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 1
        assert err.startswith("error:")
        assert "DISCONNECTED" in err

    def test_unreadable_file(self, capsys):
        code, _, err = run_cli(capsys, "cohomology", "/nonexistent/file.json")
        assert code == 1 and err.startswith("error:")

    def test_malformed_json(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys, "validate", "-", stdin="{oops", monkeypatch=monkeypatch
        )
        assert code == 1 and err.startswith("error:")

    def test_non_utf8_input(self, capsys, monkeypatch, tmp_path):
        import io
        import sys

        path = tmp_path / "bom16.json"
        path.write_bytes(b"\xff\xfe{")
        # a byte that is not UTF-8 inside a JSON string, on a stdin that
        # decodes with surrogateescape as under a C/POSIX locale
        latin = b'{"rank": 1, "vertices": [{"id": "a\xff", "isotropy": []}], "edges": []}'
        stdins = (
            io.TextIOWrapper(io.BytesIO(b"\xff\xfe{"), encoding="utf-8"),
            io.TextIOWrapper(io.BytesIO(latin), encoding="utf-8", errors="surrogateescape"),
        )
        for source, stdin in [(str(path), None)] + [("-", s) for s in stdins]:
            if stdin is not None:
                monkeypatch.setattr(sys, "stdin", stdin)
            code, _, err = run_cli(capsys, "validate", source)
            assert code == 1 and err.startswith("error:")
            assert len(err.splitlines()) == 1

    def test_deeply_nested_json(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys, "validate", "-", stdin="[" * 100_000, monkeypatch=monkeypatch
        )
        assert code == 1 and err.startswith("error:")
        assert len(err.splitlines()) == 1

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="no int/str digit limit in this Python")
    @pytest.mark.parametrize("cmd,text", [
        # an integer too long to parse, a rational too long to parse, and
        # isotropies whose numerators or integer entries are too long to print
        ("validate", '{"rank": %s, "vertices": [], "edges": []}' % ("1" * (DIGIT_LIMIT + 1))),
        ("validate", json.dumps({"rank": 1, "edges": [], "vertices": [
            {"id": "a", "isotropy": [["1/" + "7" * (DIGIT_LIMIT + 1)]]}]})),
        ("toric-skeleton", triangle([[HALF, 1, 0], [0, HALF, 1], [1, 0, HALF]])),
        ("toric-skeleton", triangle([[1, -HALF, 0], [0, 1, -HALF], [0, 0, 1]])),
    ], ids=["json-int", "rational", "output-rational", "output-int"])
    def test_past_the_int_digit_limit(self, capsys, monkeypatch, cmd, text):
        code, _, err = run_cli(capsys, cmd, "-", stdin=text, monkeypatch=monkeypatch)
        assert code == 1 and err.startswith("error:")
        assert len(err.splitlines()) == 1 and "limit" in err

    def test_closed_stdout_exits_quietly(self):
        # about 200 KB of output, more than a pipe buffer holds, so the
        # writer meets the closed pipe
        env = dict(os.environ, PYTHONPATH=str(Path(gkmcalc.__file__).parents[1]))
        with subprocess.Popen(
            [sys.executable, "-m", "gkmcalc.cli", "example", "simplex", "--n", "12"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            assert proc.stdout.read(16)
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "cohomology", "-", "--frobnicate")
        assert code == 1 and err.startswith("error:")

    def test_strict_inconclusive(self, capsys, monkeypatch, simplex2_json):
        code, _, err = run_cli(
            capsys, "check", "-", "--max-degree", "4", "--strict",
            stdin=simplex2_json, monkeypatch=monkeypatch,
        )
        assert code == 3

    def test_nonstrict_inconclusive_warns(self, capsys, monkeypatch, simplex2_json):
        code, _, err = run_cli(
            capsys, "check", "-", "--max-degree", "4",
            stdin=simplex2_json, monkeypatch=monkeypatch,
        )
        assert code == 0
        assert "warning" in err

    @pytest.mark.parametrize("argv, code", [
        (["check", "--max-degree", "3"], 0),
        (["check", "--max-degree", "3", "--strict"], 3),
        (["basic", "--max-degree", "3"], 0),
        (["basic", "--max-degree", "3", "--strict"], 3),
        (["check", "--max-degree", "6", "--strict"], 0),
        (["basic", "--max-degree", "6", "--strict"], 0),
    ])
    def test_fiber_class_above_the_cutoff(self, capsys, argv, code):
        # one vertex whose fiber class sits in degree 4: below a cutoff of
        # 4 + 2 the zero series is inconclusive, never a failed check
        out_code, out, err = run_cli(capsys, *argv, str(DATA / "fiber_degree4_vertex.json"))
        assert out_code == code
        obj = json.loads(out)
        verdict = obj["basic_verdict" if argv[0] == "check" else "verdict"]
        low = argv[2] == "3"
        assert verdict == ("inconclusive at cutoff" if low else "polynomial up to cutoff")
        if argv[0] == "check":
            status = {c["name"]: c["status"] for c in obj["checks"]}
            assert status["orbit_space_dimension"] == ("inconclusive" if low else "pass")
        what = "theorem checks" if argv[0] == "check" else "basic series"
        warned = low and "--strict" not in argv
        assert err == (f"warning: {what} inconclusive at this cutoff; increase --max-degree "
                       "or pass --strict to fail\n" if warned else "")

    @pytest.mark.parametrize("env, flags, message", [
        ("abc", [], "error: GKM_MAX_DEGREE must be an integer, got 'abc'"),
        (None, ["--max-degree", "-1"], "error: max degree must be nonnegative"),
    ])
    def test_bad_cutoff(self, capsys, monkeypatch, simplex2_json, env, flags, message):
        if env is None:
            monkeypatch.delenv("GKM_MAX_DEGREE", raising=False)
        else:
            monkeypatch.setenv("GKM_MAX_DEGREE", env)
        code, out, err = run_cli(
            capsys, "cohomology", "-", *flags, stdin=simplex2_json, monkeypatch=monkeypatch
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == [message]

    def test_validate_names_the_failed_checks(self, capsys, monkeypatch):
        # a failed check's reason is its name, except CONNECTED's: DISCONNECTED
        bad = json.dumps({
            "rank": 2,
            "vertices": [{"id": "a", "isotropy": [[1, 0]]}, {"id": "b", "isotropy": [[0, 1]]},
                         {"id": "c", "isotropy": [[1, 1]]}],
            "edges": [{"id": "e", "source": "a", "target": "b", "isotropy": []},
                      {"id": "l", "source": "c", "target": "c", "isotropy": []}],
        })
        code, out, err = run_cli(capsys, "validate", "-", stdin=bad, monkeypatch=monkeypatch)
        assert (code, err) == (1, "")
        failed = {c["name"]: c["reason"] for c in json.loads(out)["checks"] if not c["passed"]}
        assert failed == {"CONNECTED": "DISCONNECTED", "SELF_LOOP": "SELF_LOOP"}
        code, out, _ = run_cli(
            capsys, "validate", "-", "--format", "table", stdin=bad, monkeypatch=monkeypatch
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "valid: no"
        assert lines[1] == "CONNECTED            FAIL (DISCONNECTED)  underlying graph is not connected"
        assert lines[5] == "SELF_LOOP            FAIL (SELF_LOOP)  self-loops: ['l']"

    def test_formality_violation_is_check_failure(self, capsys, monkeypatch):
        # a single free vertex over a rank-2 torus is not equivariantly formal
        # at rank 3: the division produces a negative coefficient
        graph = {
            "rank": 3,
            "vertices": [{"id": "a", "isotropy": [[1, 0, 0]]}],
            "edges": [],
        }
        code, _, err = run_cli(
            capsys, "basic", "-", "--max-degree", "8",
            stdin=json.dumps(graph), monkeypatch=monkeypatch,
        )
        assert code == 2
        assert err.startswith("error:")


class TestDeterminism:
    def test_byte_identical_runs(self, capsys, monkeypatch, simplex2_json):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "check", "-", "--max-degree", "10",
                stdin=simplex2_json, monkeypatch=monkeypatch,
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_gysin_from_file(self, capsys, tmp_path):
        data = {"basic_dims": [1, 1, 1, 1], "euler_mult": [[[1]], [[1]], [[1]]]}
        path = tmp_path / "gysin.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "gysin", str(path))
        assert code == 0
        assert json.loads(out) == {
            "manifold_dim": 7,
            "betti": [1, 0, 0, 0, 0, 0, 0, 1],
        }

    def test_morse_bott_from_file(self, capsys, tmp_path):
        data = {
            "components": [
                {"index": 0, "series": {"cutoff": 2, "coeffs": [1, 0, 1]}},
                {"index": 2, "series": {"cutoff": 2, "coeffs": [1, 0, 1]}},
            ]
        }
        path = tmp_path / "mb.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "morse-bott", str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["coeffs"][:5] == [1, 0, 2, 0, 1]

    def test_env_default_cutoff(self, capsys, monkeypatch, simplex2_json):
        # the variable replaces each subcommand's own default, graph or not
        monkeypatch.setenv("GKM_MAX_DEGREE", "6")
        morse_bott = json.dumps(
            {"components": [{"index": 2, "series": {"cutoff": 2, "coeffs": [1, 0, 1]}}]}
        )
        for command, doc in (("cohomology", simplex2_json), ("morse-bott", morse_bott)):
            code, out, _ = run_cli(capsys, command, "-", stdin=doc, monkeypatch=monkeypatch)
            assert code == 0
            assert json.loads(out)["cutoff"] == 6

    def test_table_format(self, capsys, monkeypatch, simplex2_json):
        code, out, _ = run_cli(
            capsys, "cohomology", "-", "--max-degree", "4", "--format", "table",
            stdin=simplex2_json, monkeypatch=monkeypatch,
        )
        assert code == 0
        assert "degree" in out

    def test_validate_table(self, capsys, monkeypatch, simplex2_json):
        code, out, _ = run_cli(
            capsys, "validate", "-", "--format", "table",
            stdin=simplex2_json, monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out.startswith("valid: yes")

    def test_check_table(self, capsys, monkeypatch, simplex2_json):
        code, out, err = run_cli(
            capsys, "check", "-", "--max-degree", "8", "--format", "table",
            stdin=simplex2_json, monkeypatch=monkeypatch,
        )
        assert (code, err) == (0, "")
        assert out == (
            "cutoff 8  basic total 3  minimal yes\n"
            "odd_basic_vanishing       pass          all odd basic coefficients vanish\n"
            "orbit_space_dimension     pass          total basic dimension 3 matches the "
            "critical set\n"
            "closed_orbit_lower_bound  pass          total 3 >= n+1 = 3\n"
            "minimal_orbit_count       pass          minimal count: basic series is "
            "1 + t^2 + ... + t^(2n)\n"
        )

    def test_gysin_table(self, capsys, monkeypatch):
        data = json.dumps({"basic_dims": [1, 2, 1], "euler_mult": [[[1], [0]], [[1, 0]]]})
        code, out, err = run_cli(
            capsys, "gysin", "-", "--format", "table", stdin=data, monkeypatch=monkeypatch
        )
        assert (code, err) == (0, "")
        assert out == "degree  betti\n" + "".join(
            f"{d:6d}  {b:5d}\n" for d, b in enumerate([1, 0, 1, 1, 0, 1]))

    def test_graph_table(self, capsys):
        code, out, err = run_cli(capsys, "example", "stiefel", "--format", "table")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "rank 3, 4 vertices, 6 edges"
        assert lines[1] == "vertex P12+: isotropy rows [[1, 0, 1], [0, 1, 0]]"
        assert lines[5] == "edge P12+|P12-: P12+ -> P12-, isotropy rows [[0, 1, 0]]"
        assert len(lines) == 11

    def test_polytope_table(self, capsys):
        code, out, err = run_cli(capsys, "example", "simplex-polytope", "--n", "2",
                                 "--weights", "1", "1/2", "3", "--format", "table")
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "rank 3, 3 vertices, 3 facets",
            "vertex v0: coords (1, 0, 0)",
            "vertex v1: coords (0, 2, 0)",
            "vertex v2: coords (0, 0, 1/3)",
            "facet 0: normal (1, 0, 0), vertices v1, v2",
            "facet 1: normal (0, 1, 0), vertices v0, v2",
            "facet 2: normal (0, 0, 1), vertices v0, v1",
        ]

    def test_basic_strict_inconclusive(self, capsys, monkeypatch, simplex2_json):
        code, _, _ = run_cli(
            capsys, "basic", "-", "--max-degree", "2", "--strict",
            stdin=simplex2_json, monkeypatch=monkeypatch,
        )
        assert code == 3

    def test_morse_bott_explicit_cutoff(self, capsys, monkeypatch):
        data = json.dumps(
            {"components": [{"index": 0, "series": {"cutoff": 0, "coeffs": [1]}}]}
        )
        code, out, _ = run_cli(
            capsys, "morse-bott", "-", "--max-degree", "3",
            stdin=data, monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out) == {"cutoff": 3, "coeffs": [1, 0, 0, 0]}

    def test_fiber_join_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "example", "fiber-join", "--n", "1", "--genus", "2"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["vertices"][0]["fiber"]["dims"] == [[0, 1], [1, 4], [2, 1]]


def one_vertex_graph(isotropy=((1,),), **vertex):
    """A valid rank-1 graph with one vertex; ``vertex`` adds vertex fields."""
    return {"rank": 1, "vertices": [{"id": "a", "isotropy": isotropy, **vertex}], "edges": []}


def segment_graph(**edge):
    """The valid ``simplex --n 1`` graph; ``edge`` adds fields to its edge."""
    return {
        "rank": 2,
        "vertices": [{"id": "v0", "isotropy": [[0, 1]]}, {"id": "v1", "isotropy": [[1, 0]]}],
        "edges": [{"id": "e", "source": "v0", "target": "v1", "isotropy": [], **edge}],
    }


class TestHostileInputs:
    """Type-confused payloads must exit 1 with an error line, never crash."""

    SURPLUS_EULER_MULT = ("gysin", {"basic_dims": [1, 1], "euler_mult": [[[1]], [[0]], [[1]]]})

    PAYLOADS = [
        ("validate", {"rank": 2, "vertices": 5, "edges": []}),
        ("validate", {"rank": 2, "vertices": [], "edges": 5}),
        ("validate", {"rank": True, "vertices": [], "edges": []}),
        ("validate", {"rank": 2, "vertices": [{"id": "a", "isotropy": 3}], "edges": []}),
        ("validate", {"rank": 2, "vertices": [{"id": "a", "isotropy": [[0.5]]}], "edges": []}),
        ("cohomology", [1, 2, 3]),
        ("cohomology", "just a string"),
        ("toric-skeleton", {"rank": 2, "vertices": 3, "facets": []}),
        ("toric-skeleton", {"rank": 2, "vertices": [], "facets": 3}),
        (
            "toric-skeleton",
            {
                "rank": 2,
                "vertices": [{"id": "a", "coords": [1, 0]}],
                "facets": [{"normal": [1, 0], "vertices": None}],
            },
        ),
        ("gysin", {"basic_dims": [1, 1], "euler_mult": 3}),
        ("gysin", {"basic_dims": "x"}),
        ("morse-bott", {"components": 3}),
        ("morse-bott", {"components": [3]}),
        ("morse-bott", {"components": [{"index": 0.5, "series": {"cutoff": 0, "coeffs": [1]}}]}),
        # booleans are not integers
        ("gysin", {"basic_dims": [True, 1], "euler_mult": [[[1]]]}),
        ("morse-bott", {"components": [{"index": 0, "series": {"cutoff": True, "coeffs": [1, 0]}}]}),
        ("morse-bott", {"components": [{"index": False, "series": {"cutoff": 0, "coeffs": [1]}}]}),
        ("validate", one_vertex_graph(fiber={"dims": [[0, True]]})),
        # rationals are ints or "p"/"p/q" strings only
        ("validate", one_vertex_graph(isotropy=[["1e5"]])),
        ("validate", one_vertex_graph(isotropy=[["0.5"]])),
        ("validate", one_vertex_graph(isotropy=[[" 3/2"]])),
        ("validate", one_vertex_graph(isotropy=[["1_0"]])),
        # pullback degree keys are canonical decimals
        ("validate", segment_graph(pullback_source={"0": [[1]], "00": [[2]]})),
        ("validate", segment_graph(pullback_source={"0": [[1]], "00": [[1]]})),
        SURPLUS_EULER_MULT,
        # example weights follow the same rational contract; the payload
        # of an "example" row is its argument list
        ("example", ["simplex-polytope", "--n", "1", "--weights", "abc", "1"]),
        ("example", ["simplex-polytope", "--n", "1", "--weights", "1e1", " 0.5"]),
    ]

    @pytest.mark.parametrize("cmd,payload", PAYLOADS)
    def test_clean_rejection(self, capsys, monkeypatch, cmd, payload):
        if cmd == "example":
            code, _, err = run_cli(capsys, cmd, *payload)
        else:
            code, _, err = run_cli(
                capsys, cmd, "-", stdin=json.dumps(payload), monkeypatch=monkeypatch
            )
        assert code == 1
        assert err.startswith("error:")

    def test_surplus_euler_mult_is_named(self, capsys, monkeypatch):
        cmd, payload = self.SURPLUS_EULER_MULT
        code, _, err = run_cli(
            capsys, cmd, "-", stdin=json.dumps(payload), monkeypatch=monkeypatch
        )
        assert code == 1
        assert "euler_mult" in err
