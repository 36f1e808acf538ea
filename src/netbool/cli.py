"""Batch command-line front-end.

Subcommands:

* ``solve``        - exact distributed solve (satisfiable systems)
* ``solve-approx`` - truncated-consensus solve; only it has, and it
  requires, ``--T``, and it has no ``--max-rounds``
* ``sat``          - distributed satisfiability verification
* ``oracle``       - centralized exhaustive reference solver
* ``trace``        - dump the per-round node states of one projection
  consensus run as CSV (columns: round, node, coordinate, value); it
  takes only ``--seed``, ``--epsilon``, ``--rounds`` and ``--output``

The result document (JSON), or the trace CSV, goes to stdout (or
``--output``).  Exit status: 0 on success, 2 when ``sat`` returns
unsatisfiable, 3 when the outcome is undecided, 1 on input errors and on a
``--verify`` mismatch (1 outranks 3, and 3 outranks 2).
Identical problem files and seeds produce byte-identical documents.
An outcome is undecided when the solver lists reasons in its
``undecided`` field (the nodes' solution sets disagree, a consensus stage
hit ``max_rounds``); the document carries them as its ``undecided`` list,
and ``solve``, ``solve-approx`` and ``sat`` print one ``warning:`` line
per reason to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from itertools import chain, islice
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .formula import FormulaSyntaxError
from .network import build_weights, consensus
from .problem import ProblemError, ProblemFile, load_problem, merge_config
from .solver import (
    RunConfig,
    SolveOutcome,
    lift_system,
    oracle_solve,
    solve_approximate,
    solve_exact,
    verify_satisfiability,
)

__all__ = ["main"]

_SOLVERS = {
    "solve": solve_exact,
    "solve-approx": solve_approximate,
    "sat": verify_satisfiability,
}


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; statuses 2 and 3 are the unsatisfiable verdict
    # and the undecided outcome
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_consensus(p: argparse.ArgumentParser) -> None:
    """Options of every subcommand that runs consensus."""
    p.add_argument("problem", help="problem file (JSON)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--output", type=str, default=None, help="write the result here instead of stdout")


def _add_solver(p: argparse.ArgumentParser, capped: bool) -> None:
    """Options of the subcommands that solve; ``capped``: the subcommand
    runs consensus to convergence, which ``--max-rounds`` caps."""
    _add_consensus(p)
    p.add_argument("--k-star", type=int, default=None, dest="k_star")
    p.add_argument("--chi0-prior", type=int, default=None, dest="chi0_prior")
    if capped:
        p.add_argument("--max-rounds", type=int, default=None, dest="max_rounds")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="netbool",
                     description="Solve systems of Boolean equations distributed over a network.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="exact distributed solve")
    _add_solver(p_solve, capped=True)
    p_solve.add_argument("--verify", action="store_true",
                         help="cross-check the solution set against the oracle")

    p_approx = sub.add_parser("solve-approx", help="solve with T-round consensus")
    _add_solver(p_approx, capped=False)
    p_approx.add_argument("--T", type=int, default=None, dest="T")

    p_sat = sub.add_parser("sat", help="verify satisfiability")
    _add_solver(p_sat, capped=True)

    p_oracle = sub.add_parser("oracle", help="centralized brute-force solve")
    p_oracle.add_argument("problem")
    p_oracle.add_argument("--output", type=str, default=None)

    p_trace = sub.add_parser("trace", help="dump a consensus trajectory")
    _add_consensus(p_trace)
    p_trace.add_argument("--rounds", type=int, default=50)
    return parser


def _config_from_args(problem: ProblemFile, args: argparse.Namespace) -> RunConfig:
    fields = dataclasses.fields(RunConfig)
    return merge_config(problem, {f.name: getattr(args, f.name, None) for f in fields})


def _bits(assignment: Sequence[int]) -> str:
    return "".join(str(b) for b in assignment)


def _json_safe(value: Any) -> Any:
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    return value


def _document(problem: ProblemFile, config: RunConfig, outcome: SolveOutcome) -> dict:
    doc = {
        "mode": outcome.mode,
        "m": problem.m,
        "n": problem.n,
        "seed": config.seed,
        "solutions": [_bits(x) for x in outcome.solutions],
        "diagnostics": _json_safe(outcome.diagnostics),
        "undecided": list(outcome.undecided),
    }
    if outcome.per_node_solutions is not None:
        doc["per_node_solutions"] = [
            [_bits(x) for x in node_set] for node_set in outcome.per_node_solutions
        ]
    if outcome.verdict is not None:
        doc["verdict"] = outcome.verdict
        doc["stage"] = outcome.stage
    return doc


def _emit(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _write_trace(problem: ProblemFile, config: RunConfig, path: str | None, rounds: int) -> None:
    """Record one projection-consensus run (round 0 = initial states) in
    long CSV form: round, node, coordinate, value."""
    system = problem.system()
    graph = problem.graph()
    eqs = lift_system(system)
    rng = np.random.default_rng(config.seed)
    w = build_weights(graph, config.effective_epsilon(graph.n))
    initials = rng.random((graph.n, 2**system.m))
    frames = chain([initials], islice(consensus(w, initials, eqs), rounds))

    out = sys.stdout if path is None else open(path, "w", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(["round", "node", "coordinate", "value"])
        for t, states in enumerate(frames):
            for node, row in enumerate(states, start=1):
                for coord, value in enumerate(row, start=1):
                    writer.writerow([t, node, coord, repr(float(value))])
    finally:
        if path is not None:
            out.close()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse help/usage paths
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (ProblemError, FormulaSyntaxError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)

    if args.command == "oracle":
        system = problem.system()
        solutions = sorted(oracle_solve(system))
        _emit(
            {
                "mode": "oracle",
                "m": problem.m,
                "n": problem.n,
                "solutions": [_bits(x) for x in solutions],
            },
            args.output,
        )
        return 0

    config = _config_from_args(problem, args)
    system = problem.system()
    graph = problem.graph()

    if args.command == "trace":
        _write_trace(problem, config, args.output, args.rounds)
        return 0

    if args.command == "solve-approx" and "max_rounds" in problem.config:
        # the file-side twin of the --max-rounds flag solve-approx lacks
        raise ProblemError(
            f"{args.problem}: solve-approx runs exactly T rounds and reads no config 'max_rounds'"
        )
    outcome = _SOLVERS[args.command](system, graph, config)
    for reason in outcome.undecided:
        print(f"warning: {reason}", file=sys.stderr)
    doc = _document(problem, config, outcome)
    if args.command == "solve" and args.verify:
        expected = {tuple(x) for x in oracle_solve(system)}
        doc["verify"] = "ok" if set(outcome.solutions) == expected else "mismatch"
    _emit(doc, args.output)
    if doc.get("verify") == "mismatch":
        print("error: solution set does not match the oracle", file=sys.stderr)
        return 1
    if outcome.undecided:
        return 3
    return 2 if outcome.verdict == "unsatisfiable" else 0


if __name__ == "__main__":
    sys.exit(main())
