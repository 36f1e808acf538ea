import argparse
import csv
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netbool import formula
from netbool.cli import _build_parser, main
from netbool.formula import parse_formula
from netbool.problem import ProblemError, load_problem, merge_config
from netbool.solver import RunConfig, solve_approximate, solve_exact, verify_satisfiability

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

    def test_one_parse_per_formula(self, ex1_path, monkeypatch):
        # the system and graph built to validate the file are the ones
        # system() and graph() hand out
        parses = []

        def counting(text, m):
            parses.append(text)
            return parse_formula(text, m)

        monkeypatch.setattr(formula, "parse_formula", counting)
        problem = load_problem(ex1_path)
        assert problem.system() is problem.system()
        assert problem.graph() is problem.graph()
        assert len(parses) == problem.n == 3

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

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"equations": [EX1_DOC["equations"][0], {"formula": "(x1 & x2", "rhs": 1}]},
             "equation 2: expected ')', found end of input (at position 8)"),
            ({"equations": EX1_DOC["equations"][:2], "edges": [[1, 3]]},
             "invalid edge (1, 3) for n=2"),
        ],
        ids=["formula", "edge"],
    )
    def test_error_names_the_file(self, tmp_path, change, message, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(EX1_DOC, **change)))
        with pytest.raises(ProblemError, match=re.escape(f"{path}: {message}")):
            load_problem(path)
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

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

    @pytest.mark.parametrize(
        "doc, message",
        [
            (dict(EX1_DOC, confg={"seed": 1}), "unknown top-level keys ['confg']"),
            (dict(EX1_DOC, equations=[dict(EX1_DOC["equations"][0], rsh=0)]
                  + EX1_DOC["equations"][1:]),
             "unknown keys ['rsh'] in equation 1"),
        ],
        ids=["top-level", "equation"],
    )
    def test_unknown_key_refused(self, tmp_path, doc, message, capsys):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemError, match=re.escape(message)):
            load_problem(path)
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"

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

    @pytest.mark.parametrize(
        "solve, config, system",
        [
            (solve_exact, RunConfig(seed=7), EX1_DOC),
            (solve_approximate, RunConfig(seed=7, T=50), EX1_DOC),
            (verify_satisfiability, RunConfig(seed=3), EX1_DOC),
            (verify_satisfiability, RunConfig(seed=1), EX3_DOC),
        ],
        ids=["solve", "solve-approx", "sat-solved", "sat-disagreement"],
    )
    def test_diagnostics_are_plain_values(self, tmp_path, solve, config, system):
        # the document writes the diagnostics as they are, so numpy scalars
        # and arrays must not reach them
        path = tmp_path / "p.json"
        path.write_text(json.dumps(system))
        problem = load_problem(path)
        plain = (bool, int, float, str, type(None), list, dict)

        def walk(value):
            assert type(value) in plain, value
            if isinstance(value, dict):
                value = list(value.values())
            for child in value if isinstance(value, list) else ():
                walk(child)

        walk(solve(problem.system(), problem.graph(), config).diagnostics)


PROBLEMS = Path(__file__).resolve().parents[1] / "problems"

CONVERGED = "consensus hit max_rounds (converged is false)"
DISAGREE = "nodes disagree (nodes_agree is false)"
LIMITS = "limit consensus hit max_rounds (limits_converged is false)"
AVERAGE = "network average hit max_rounds (average_converged is false)"


def below_floor(*dims: int) -> list[str]:
    """The dimension floor's reasons on ex1 or ex2 (m = n = 3, floor 4) when
    nodes 1, 2 and 3 have subspaces of dimensions ``dims``."""
    return [
        f"node {i}'s subspace has dimension {dim}, below the floor 2^m - n - 1 = 4"
        for i, dim in enumerate(dims, start=1)
    ]


def small_gaps(*gaps: str) -> list[str]:
    """The rank gap's reasons when nodes 1, 2, ... have the printed gaps."""
    return [f"node {i}'s rank gap {gap} is below 100" for i, gap in enumerate(gaps, start=1)]


class TestCliWarnings:
    @pytest.mark.parametrize(
        "args, undecided, verdict",
        [
            (["solve", "ex1.json", "--max-rounds", "1"], [CONVERGED, DISAGREE], None),
            (["solve-approx", "ex2.json", "--T", "2", "--seed", "1"],
             [DISAGREE, *below_floor(3, 2, 3), *small_gaps("1.93", "1.86", "4.08")], None),
            # 4 runs span only 3 of ex1's 4 hull dimensions: the nodes agree on []
            (["solve", "ex1.json", "--seed", "7", "--k-star", "4"], below_floor(3, 3, 3), None),
            # exit 3 outranks the unsatisfiable verdict's 2
            (["sat", "ex1.json", "--max-rounds", "1"], [LIMITS, AVERAGE], "unsatisfiable"),
        ],
        ids=["solve", "solve-approx", "solve-undersampled", "sat"],
    )
    def test_undecided_outcome_warns(self, args, undecided, verdict, capsys):
        command, name, *flags = args
        assert main([command, str(PROBLEMS / name), *flags]) == 3
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["undecided"] == undecided
        assert doc.get("verdict") == verdict
        assert captured.err.splitlines() == [f"warning: {reason}" for reason in undecided]

    def test_verify_mismatch_outranks_undecided(self, capsys):
        assert main(["solve", str(PROBLEMS / "ex1.json"), "--max-rounds", "1", "--verify"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["verify"] == "mismatch"
        assert captured.err.splitlines()[-1] == "error: solution set does not match the oracle"

    @pytest.mark.parametrize("name", sorted(p.name for p in PROBLEMS.glob("*.json")))
    @pytest.mark.parametrize(
        "command, flags",
        [("solve", ["--seed", "7"]), ("solve-approx", ["--T", "300", "--seed", "7"]),
         ("sat", ["--seed", "3"])],
        ids=["solve", "solve-approx", "sat"],
    )
    def test_decided_outcome_is_quiet(self, name, command, flags, capsys):
        assert main([command, str(PROBLEMS / name), *flags]) in (0, 2)
        captured = capsys.readouterr()
        assert json.loads(captured.out)["undecided"] == []
        assert captured.err == ""


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
        assert captured.err == f"error: {path}: {command} reads no config 'T'\n"

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("solve-approx", "--c-star"),
            ("solve-approx", "--gamma-star"),
            ("solve", "--tol"),
            ("solve-approx", "--tol"),
            ("sat", "--tol"),
            ("trace", "--k-star"),
            ("trace", "--chi0-prior"),
            ("solve", "--chi0-prior"),
            ("solve-approx", "--chi0-prior"),
            ("sat", "--chi0-prior"),
            ("trace", "--tol"),
            ("trace", "--max-rounds"),
            ("solve-approx", "--max-rounds"),
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

    def test_max_rounds_in_problem_file_refused_by_solve_approx(self, tmp_path, capsys):
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(dict(EX1_DOC, config={"max_rounds": 1})))
        assert main(["solve-approx", str(path), "--T", "300"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "reads no config 'max_rounds'" in captured.err

    @pytest.mark.parametrize("key", ["k_star", "T", "max_rounds"])
    def test_unread_config_refused_by_trace(self, tmp_path, key, capsys):
        path = tmp_path / "traced.json"
        path.write_text(json.dumps(dict(EX1_DOC, config={"seed": 3, key: 5})))
        out = tmp_path / "trace.csv"
        assert main(["trace", str(path), "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: trace reads no config {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key", ["c_star", "gamma_star", "consensus_tol", "disagreement_tol", "tol", "chi0_prior"]
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
    assert options == {
        "solve": ["--seed", "--epsilon", "--k-star", "--max-rounds", "--output", "--verify"],
        "solve-approx": ["--seed", "--epsilon", "--k-star", "--T", "--output"],
        "sat": ["--seed", "--epsilon", "--k-star", "--max-rounds", "--output"],
        "oracle": ["--output"],
        "trace": ["--seed", "--epsilon", "--output", "--rounds"],
    }
    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        "epsilon", "k_star", "T", "seed", "max_rounds",
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

    def test_negative_rounds_refused(self, ex1_path, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["trace", ex1_path, "--rounds", "-1", "--output", str(out)]) == 1
        assert main(["trace", ex1_path, "--rounds", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --rounds must be >= 0, got -1\n" * 2
        assert not out.exists()


class TestCliErrors:
    def test_missing_file(self, capsys):
        assert main(["solve", "no-such-file.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_problem(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"m": 0, "equations": [], "edges": []}))
        assert main(["solve", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    # bool subclasses int, but JSON true is not an integer
    @pytest.mark.parametrize(
        "message, doc",
        [
            ("'m' must be a positive integer",
             {"m": True, "equations": [{"formula": "x1", "rhs": 1}], "edges": []}),
            ("equation 1 must be",
             {"m": 1, "equations": [{"formula": "x1", "rhs": True}], "edges": []}),
            ("equation 1 must be", dict(EX1_DOC, equations=[{"formula": "x1", "rhs": 1.0}] * 3)),
            ("bad edge entry [True, 2]", dict(EX1_DOC, edges=[[True, 2], [2, 3]])),
        ],
        ids=["m-true", "rhs-true", "rhs-float", "edge-true"],
    )
    def test_not_an_integer(self, tmp_path, message, doc, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err

    def test_bad_flag_value(self, ex1_path, capsys):
        assert main(["solve", ex1_path, "--seed", "not-a-number"]) == 1

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("seed", None, "an integer"),
            ("seed", "abc", "an integer"),
            ("seed", 7.0, "an integer"),
            ("seed", True, "an integer"),
            ("k_star", "3", "an integer"),
            ("max_rounds", None, "an integer"),
            ("max_rounds", 2.5, "an integer"),
            ("T", "300", "an integer"),
            ("epsilon", "0.2", "a number"),
            ("epsilon", None, "a number"),
            ("epsilon", False, "a number"),
        ],
    )
    def test_bad_config_value(self, tmp_path, key, value, kind, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(EX1_DOC, config={key: value})))
        command = ["solve-approx", str(path), "--T", "50"] if key == "T" else ["solve", str(path)]
        assert main(command) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert f"config {key!r} must be {kind}, got {value!r}" in captured.err

    def test_int_epsilon_accepted(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(EX1_DOC, config={"epsilon": 0, "seed": 3, "T": 300})))
        assert load_problem(path).config == {"epsilon": 0, "seed": 3, "T": 300}
        assert merge_config(load_problem(path), {}).epsilon == 0

    @pytest.mark.parametrize("command", ["solve", "solve-approx", "sat", "trace"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed(self, tmp_path, command, source, capsys):
        path = tmp_path / "seed.json"
        config = {"seed": -1} if source == "config" else {}
        path.write_text(json.dumps(dict(EX1_DOC, config=config)))
        args = [command, str(path)] + (["--T", "50"] if command == "solve-approx" else [])
        assert main(args + (["--seed", "-1"] if source == "flag" else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize(
        "args", [["solve"], ["solve-approx", "--T", "2"], ["sat"], ["trace"]], ids=lambda a: a[0]
    )
    def test_too_large_for_memory(self, tmp_path, args, capsys):
        # the (48, 2^48) uint8 bit columns take 12 PiB, more than any address
        # space holds, so the allocation fails before it touches memory
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(dict(EX1_DOC, m=48)))
        command, *flags = args
        assert main([command, str(path), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("T", ["0", "-1"])
    def test_nonpositive_horizon(self, ex1_path, T, capsys):
        assert main(["solve-approx", ex1_path, "--T", T]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: T must be >= 1, got {T}\n"


def test_module_entry_point(ex1_path):
    proc = subprocess.run(
        [sys.executable, "-m", "netbool", "oracle", ex1_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["solutions"] == ["000", "010", "100", "101"]
