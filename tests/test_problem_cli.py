import argparse
import csv
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netbool.cli import _build_parser, main
from netbool.problem import ProblemError, load_problem, merge_config
from netbool.solver import RunConfig

EX1_DOC = {
    "m": 3,
    "equations": [
        {"formula": "x1 | x2 | !x3", "rhs": 1},
        {"formula": "x1 & (x1 <-> x2)", "rhs": 0},
        {"formula": "x2 & x3", "rhs": 0},
    ],
    "edges": [[1, 2], [2, 3]],
}

EX3_DOC = {
    "m": 3,
    "equations": [
        {"formula": "x1 & x2 & x3", "rhs": 1},
        {"formula": "!x1 | (x2 <-> x3)", "rhs": 1},
        {"formula": "x1 & (x2 | x3)", "rhs": 0},
    ],
    "edges": [[1, 2], [2, 3]],
    "config": {"epsilon": 0.2},
}


@pytest.fixture
def ex1_path(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(json.dumps(EX1_DOC))
    return str(path)


@pytest.fixture
def ex3_path(tmp_path):
    path = tmp_path / "ex3.json"
    path.write_text(json.dumps(EX3_DOC))
    return str(path)


class TestLoadProblem:
    def test_round_trip(self, ex1_path):
        problem = load_problem(ex1_path)
        assert problem.m == 3
        assert problem.n == 3
        system = problem.system()
        graph = problem.graph()
        assert system.n == graph.n == 3

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"m": 2, "equations": []}))
        with pytest.raises(ProblemError, match="edges"):
            load_problem(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ProblemError, match="JSON"):
            load_problem(path)

    def test_formula_error_carries_position(self, tmp_path):
        doc = dict(EX1_DOC, equations=[{"formula": "x1 | ?", "rhs": 1}], edges=[])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemError, match="position 5"):
            load_problem(path)

    def test_disconnected_graph(self, tmp_path):
        doc = dict(EX1_DOC, edges=[[1, 2]])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemError, match="not connected"):
            load_problem(path)

    def test_unknown_config_key(self, tmp_path):
        doc = dict(EX1_DOC, config={"stepsize": 0.1})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemError, match="stepsize"):
            load_problem(path)

    def test_bad_rhs(self, tmp_path):
        doc = dict(EX1_DOC, equations=[{"formula": "x1", "rhs": 2}])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemError, match="rhs"):
            load_problem(path)

    def test_config_precedence(self, ex3_path):
        problem = load_problem(ex3_path)
        config = merge_config(problem, {"seed": 9, "epsilon": None})
        assert config.epsilon == 0.2  # from the file
        assert config.seed == 9  # from the flags
        override = merge_config(problem, {"epsilon": 0.1})
        assert override.epsilon == 0.1


class TestCliSolve:
    def test_solve_document(self, ex1_path, capsys):
        code = main(["solve", ex1_path, "--seed", "7"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["mode"] == "solve"
        assert doc["solutions"] == ["000", "010", "100", "101"]
        assert doc["seed"] == 7
        assert doc["diagnostics"]["k_star"] == 9

    def test_byte_identical_documents(self, ex1_path, capsys):
        main(["solve", ex1_path, "--seed", "42"])
        first = capsys.readouterr().out
        main(["solve", ex1_path, "--seed", "42"])
        second = capsys.readouterr().out
        assert first == second
        main(["solve", ex1_path, "--seed", "43"])
        assert capsys.readouterr().out != first  # diagnostics differ

    def test_verify_flag(self, ex1_path, capsys):
        code = main(["solve", ex1_path, "--seed", "7", "--verify"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verify"] == "ok"

    def test_output_file(self, ex1_path, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(["solve", ex1_path, "--seed", "7", "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["solutions"] == ["000", "010", "100", "101"]

    def test_k_star_flag(self, ex1_path, capsys):
        main(["solve", ex1_path, "--seed", "7", "--k-star", "9"])
        assert json.loads(capsys.readouterr().out)["diagnostics"]["k_star"] == 9


class TestCliWarnings:
    @pytest.mark.parametrize(
        "command, flag, code",
        [("solve", "converged", 0), ("sat", "limits_converged", 2)],
    )
    def test_unconverged_consensus_warns(self, command, flag, code, capsys):
        problem = str(Path(__file__).resolve().parents[1] / "problems" / "ex1.json")
        assert main([command, problem, "--max-rounds", "1"]) == code
        captured = capsys.readouterr()
        assert json.loads(captured.out)["diagnostics"][flag] is False
        assert captured.err.startswith("warning: ")
        assert flag in captured.err


class TestCliSat:
    def test_unsatisfiable_exit_code(self, ex3_path, capsys):
        code = main(["sat", ex3_path, "--seed", "1", "--epsilon", "0.2"])
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "unsatisfiable"
        assert doc["stage"] == "consensus-disagreement"

    def test_satisfiable_exit_code(self, ex1_path, capsys):
        code = main(["sat", ex1_path, "--seed", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "satisfiable"
        assert doc["solutions"] == ["000", "010", "100", "101"]


class TestCliOracleAndApprox:
    def test_oracle(self, ex1_path, capsys):
        code = main(["oracle", ex1_path])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["solutions"] == [
            "000",
            "010",
            "100",
            "101",
        ]

    def test_solve_approx(self, ex1_path, capsys):
        code = main(["solve-approx", ex1_path, "--seed", "5", "--T", "2000"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "solve-approx"
        assert doc["solutions"] == ["000", "010", "100", "101"]
        assert doc["diagnostics"]["T"] == 2000

    def test_solve_approx_requires_horizon(self, ex1_path, capsys):
        code = main(["solve-approx", ex1_path, "--seed", "5"])
        assert code == 1

    def test_solve_approx_without_runs(self, ex1_path, capsys):
        assert main(["solve-approx", ex1_path, "--T", "50", "--k-star", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: k_star must be >= 1")


class TestCliHorizon:
    @pytest.mark.parametrize("command", ["solve", "sat", "trace"])
    @pytest.mark.parametrize("flag", ["--T", "--c-star", "--gamma-star"])
    def test_truncated_mode_flags_only_on_solve_approx(self, ex1_path, command, flag, capsys):
        assert main([command, ex1_path, flag, "3"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "sat"])
    def test_horizon_in_problem_file_refused(self, tmp_path, command, capsys):
        path = tmp_path / "horizon.json"
        path.write_text(json.dumps(dict(EX1_DOC, config={"T": 3})))
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: only solve_approximate takes T")

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("solve-approx", "--c-star"),
            ("solve-approx", "--gamma-star"),
            ("trace", "--k-star"),
            ("trace", "--chi0-prior"),
            ("trace", "--tol"),
            ("trace", "--max-rounds"),
        ],
    )
    def test_unread_flags_refused(self, ex1_path, command, flag, capsys):
        assert main([command, ex1_path, flag, "3"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "solve-approx", "sat"])
    def test_trace_side_channel_refused(self, ex1_path, tmp_path, command, capsys):
        out = tmp_path / "trace.csv"
        assert main([command, ex1_path, "--trace", str(out)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key", ["c_star", "gamma_star", "consensus_tol", "disagreement_tol"]
    )
    def test_bound_constants_in_problem_file_refused(self, tmp_path, key, capsys):
        path = tmp_path / "bound.json"
        path.write_text(json.dumps(dict(EX1_DOC, config={key: 0.1})))
        assert main(["solve-approx", str(path), "--T", "50"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert f"unknown config keys ['{key}']" in captured.err


def test_option_surface():
    # every option and RunConfig field is pinned, so a new knob shows up here
    sub = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
        for name, p in sub.choices.items()
    }
    solver = ["--seed", "--epsilon", "--output", "--k-star", "--chi0-prior", "--tol", "--max-rounds"]
    assert options == {
        "solve": solver + ["--verify"],
        "solve-approx": solver + ["--T"],
        "sat": solver,
        "oracle": ["--output"],
        "trace": ["--seed", "--epsilon", "--output", "--rounds"],
    }
    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        "epsilon", "k_star", "chi0_prior", "T", "tol", "seed", "max_rounds",
    ]


class TestCliTrace:
    def test_trace_csv(self, ex3_path, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["trace", ex3_path, "--seed", "3", "--rounds", "10", "--output", str(out)])
        assert code == 0
        with out.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["round", "node", "coordinate", "value"]
        # 11 recorded rounds (0..10) x 3 nodes x 8 coordinates
        assert len(rows) - 1 == 11 * 3 * 8
        assert {row[1] for row in rows[1:]} == {"1", "2", "3"}
        last = [float(row[3]) for row in rows[1:] if row[0] == "10"]
        assert all(np.isfinite(v) for v in last)


class TestCliErrors:
    def test_missing_file(self, capsys):
        assert main(["solve", "no-such-file.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_problem(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"m": 0, "equations": [], "edges": []}))
        assert main(["solve", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_flag_value(self, ex1_path, capsys):
        assert main(["solve", ex1_path, "--seed", "not-a-number"]) == 1


def test_module_entry_point(ex1_path):
    proc = subprocess.run(
        [sys.executable, "-m", "netbool", "oracle", ex1_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["solutions"] == ["000", "010", "100", "101"]
