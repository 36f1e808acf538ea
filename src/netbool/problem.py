"""Problem files: the on-disk form of a Boolean equation system plus its
network.

A problem file is JSON shaped like::

    {
      "m": 3,
      "equations": [{"formula": "x1 | x2 | !x3", "rhs": 1}, ...],
      "edges": [[1, 2], [2, 3]],
      "config": {"epsilon": 0.2, "seed": 7}
    }

Node ids are 1-based; node i holds equation i, so the node count is the
number of equations.  The optional ``config`` object carries run-parameter
overrides; command-line flags take precedence over it.  A key outside
this shape, at the top level, in an equation or in ``config``, is refused.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import formula
from .formula import BooleanSystem
from .network import Graph
from .solver import RunConfig

__all__ = ["ProblemFile", "ProblemError", "load_problem", "merge_config"]

_CONFIG_KEYS = {f.name for f in dataclasses.fields(RunConfig)}
_TOP_KEYS = {"m", "equations", "edges", "config"}
_EQUATION_KEYS = {"formula", "rhs"}


class ProblemError(ValueError):
    """Invalid problem file content."""


def _is_int(value: Any) -> bool:
    """A JSON integer: ``bool`` subclasses ``int``, but ``true`` is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ProblemFile:
    """A validated problem file: the system and the network that
    ``load_problem`` built to check it, and the config overrides."""

    _system: BooleanSystem
    _graph: Graph
    config: dict[str, Any]

    @property
    def m(self) -> int:
        return self._system.m

    @property
    def n(self) -> int:
        return self._system.n

    def system(self) -> BooleanSystem:
        return self._system

    def graph(self) -> Graph:
        return self._graph


def load_problem(path: str | Path) -> ProblemFile:
    """Read and structurally validate a problem file."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ProblemError(f"{path}: not valid JSON: {exc}") from exc

    if not isinstance(raw, dict):
        raise ProblemError(f"{path}: expected a JSON object at top level")
    if unknown := sorted(set(raw) - _TOP_KEYS):
        raise ProblemError(f"{path}: unknown top-level keys {unknown}")
    for key in ("m", "equations", "edges"):
        if key not in raw:
            raise ProblemError(f"{path}: missing required field {key!r}")

    m = raw["m"]
    if not _is_int(m) or m < 1:
        raise ProblemError(f"{path}: 'm' must be a positive integer")

    equations = []
    if not isinstance(raw["equations"], list) or not raw["equations"]:
        raise ProblemError(f"{path}: 'equations' must be a non-empty list")
    for k, entry in enumerate(raw["equations"]):
        if isinstance(entry, dict) and (unknown := sorted(set(entry) - _EQUATION_KEYS)):
            raise ProblemError(f"{path}: unknown keys {unknown} in equation {k + 1}")
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("formula"), str)
            or not _is_int(entry.get("rhs"))
            or entry["rhs"] not in (0, 1)
        ):
            raise ProblemError(
                f"{path}: equation {k + 1} must be {{\"formula\": str, \"rhs\": 0|1}}"
            )
        try:
            parsed = formula.parse_formula(entry["formula"], m)
        except ValueError as exc:  # FormulaSyntaxError is one
            raise ProblemError(f"{path}: equation {k + 1}: {exc}") from exc
        equations.append((parsed, entry["rhs"]))

    edges = []
    if not isinstance(raw["edges"], list):
        raise ProblemError(f"{path}: 'edges' must be a list of [i, j] pairs")
    for pair in raw["edges"]:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(_is_int(v) for v in pair)
        ):
            raise ProblemError(f"{path}: bad edge entry {pair!r}")
        edges.append((pair[0], pair[1]))

    config = raw.get("config", {})
    if not isinstance(config, dict):
        raise ProblemError(f"{path}: 'config' must be an object")
    if unknown := sorted(set(config) - _CONFIG_KEYS):
        raise ProblemError(f"{path}: unknown config keys {unknown}")
    for key, value in config.items():
        number = key == "epsilon" and isinstance(value, float)
        if not (number or _is_int(value)):
            kind = "a number" if key == "epsilon" else "an integer"
            raise ProblemError(f"{path}: config {key!r} must be {kind}, got {value!r}")

    try:
        graph = Graph.from_edge_list(len(equations), edges)
    except ValueError as exc:
        raise ProblemError(f"{path}: {exc}") from exc
    return ProblemFile(BooleanSystem(m, tuple(equations)), graph, dict(config))


def merge_config(problem: ProblemFile, overrides: dict[str, Any]) -> RunConfig:
    """RunConfig from defaults, then the problem file, then CLI overrides."""
    merged = dict(problem.config)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**merged)
