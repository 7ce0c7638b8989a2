"""Tests for the command-line interface.

Everything runs in-process through ``gkmcalc.cli.main`` with captured
stdout; determinism is asserted on raw output bytes.
"""

import json

import pytest

from gkmcalc.cli import main


def run_cli(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        monkeypatch.setattr(
            sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe{"), encoding="utf-8")
        )
        for source in (str(path), "-"):
            code, _, err = run_cli(capsys, "validate", source)
            assert code == 1 and err.startswith("error:")
            assert len(err.splitlines()) == 1

    def test_deeply_nested_json(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys, "validate", "-", stdin="[" * 100_000, monkeypatch=monkeypatch
        )
        assert code == 1 and err.startswith("error:")
        assert len(err.splitlines()) == 1

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
        monkeypatch.setenv("GKM_MAX_DEGREE", "6")
        code, out, _ = run_cli(
            capsys, "cohomology", "-", stdin=simplex2_json, monkeypatch=monkeypatch
        )
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
