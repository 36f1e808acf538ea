"""Batch command-line front-end.

Subcommands:

* ``solve``        - exact distributed solve (satisfiable systems)
* ``solve-approx`` - truncated-consensus solve; it requires ``--T``
* ``sat``          - distributed satisfiability verification
* ``oracle``       - centralized exhaustive reference solver
* ``trace``        - dump the per-round node states of one projection
  consensus run as CSV (columns: round, node, coordinate, value)

``_READS`` lists the run parameters each subcommand but ``oracle`` reads:
it takes exactly those as flags and as problem-file config keys.

The result document (JSON), or the trace CSV, goes to stdout (or
``--output``).  Exit status: 0 on success, 2 when ``sat`` returns
unsatisfiable, 3 when the outcome is undecided, 1 on input errors (a
problem too large for memory is one) and on a ``--verify`` mismatch (1
outranks 3, and 3 outranks 2).
Identical problem files and seeds produce byte-identical documents.
An outcome is undecided when the solver lists reasons in its
``undecided`` field (the nodes' solution sets disagree, a node's subspace
fails the dimension floor or the rank gap, a consensus stage hit
``max_rounds``, ``sat``'s stage one splits its node flags, a truncated
node has no contraction rate or too large a threshold or search slack, or
a truncated fit keeps no direction while its outputs' spread is near its
threshold); the document carries them as its ``undecided`` list,
and ``solve``, ``solve-approx`` and ``sat`` print one ``warning:`` line
per reason to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import chain, islice
from pathlib import Path
from typing import Sequence

from .matricization import lift_system
from .network import build_weights, consensus
from .problem import ProblemError, ProblemFile, load_problem, merge_config
from .solver import (
    RunConfig,
    SolveOutcome,
    SplitMix64,
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


# The RunConfig fields each consensus-running subcommand reads, each one a
# flag; any other config key is refused.  ``oracle`` runs no consensus and
# ignores ``config``.
_READS = {
    "solve": ("seed", "epsilon", "k_star", "max_rounds"),
    "solve-approx": ("seed", "epsilon", "k_star", "T"),
    "sat": ("seed", "epsilon", "k_star", "max_rounds"),
    "trace": ("seed", "epsilon"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="netbool",
                     description="Solve systems of Boolean equations distributed over a network.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("solve", "exact distributed solve"),
        ("solve-approx", "solve with T-round consensus"),
        ("sat", "verify satisfiability"),
        ("oracle", "centralized brute-force solve"),
        ("trace", "dump a consensus trajectory"),
    ]:
        p = sub.add_parser(name, help=text)
        p.add_argument("problem", help="problem file (JSON)")
        for field in _READS.get(name, ()):
            p.add_argument("--" + field.replace("_", "-"), type=float if field == "epsilon" else int)
        p.add_argument("--output", help="write the result here instead of stdout")
    sub.choices["solve"].add_argument("--verify", action="store_true",
                                      help="cross-check the solution set against the oracle")
    sub.choices["trace"].add_argument("--rounds", type=int, default=50)
    return parser


def _bits(assignment: Sequence[int]) -> str:
    return "".join(str(b) for b in assignment)


def _document(problem: ProblemFile, config: RunConfig, outcome: SolveOutcome) -> dict:
    doc = {
        "mode": outcome.mode,
        "m": problem.m,
        "n": problem.n,
        "seed": config.seed,
        "solutions": [_bits(x) for x in outcome.solutions],
        "diagnostics": outcome.diagnostics,
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
    if rounds < 0:
        raise ValueError(f"--rounds must be >= 0, got {rounds}")
    system = problem.system()
    graph = problem.graph()
    eqs = lift_system(system)
    w = build_weights(graph, config.effective_epsilon(graph.n))
    initials = SplitMix64(config.seed).random((1, graph.n, 2**system.m))
    frames = chain([initials], islice(consensus(w, initials, eqs), rounds))

    out = sys.stdout if path is None else open(path, "w", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(["round", "node", "coordinate", "value"])
        for t, states in enumerate(frames):
            for node, row in enumerate(states[0], start=1):
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
    # ProblemError and FormulaSyntaxError are ValueErrors; a MemoryError is
    # a problem too large to hold, such as the 2^m bit columns at m = 48
    except (OSError, ValueError, MemoryError) as exc:
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

    reads = _READS[args.command]
    for key in sorted(problem.config):
        if key not in reads:
            raise ProblemError(f"{args.problem}: {args.command} reads no config {key!r}")
    config = merge_config(problem, {key: getattr(args, key) for key in reads})

    if args.command == "trace":
        _write_trace(problem, config, args.output, args.rounds)
        return 0

    system = problem.system()
    outcome = _SOLVERS[args.command](system, problem.graph(), config)
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
