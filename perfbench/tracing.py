"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files only: the tracer wraps
the names that ``netbool.solver`` imports or defines and calls through
module globals, so the solver's calls into the network, linear-algebra and
search layers pass through the wrappers while the program's code stays
untouched.  Spans live in a list until the run ends; self time and the
per-layer counters are derived from them afterwards.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

NETWORK = ("network.lae", "network.converge")

# solver-module name -> (span name, counters recorded from (args, result))
_WRAPPED: dict[str, tuple[str, Callable[[tuple, Any], dict]]] = {
    "lift_system": ("solver.lift", lambda args, r: {}),
    "distributed_lae": (
        "network.lae",
        lambda args, r: {"rounds": r[1], "converged": r[2], "n": args[1].n},
    ),
    "run_to_convergence": (
        "network.converge",
        lambda args, r: {"rounds": r[1], "converged": r[2], "n": r[0].shape[0]},
    ),
    "estimate_contraction_rate": ("solver.calibrate", lambda args, r: {}),
    "best_affine_fit": ("linalg.fit", lambda args, r: {}),
    "dist_to_affine": ("linalg.dist", lambda args, r: {}),
    "boolean_vector_search": ("search", lambda args, r: {"hits": len(r)}),
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    trace_id: int  # one per problem
    counters: dict | None = None


class Tracer:
    """Records nested spans; ``install``/``uninstall`` swap the wrappers
    into and out of ``netbool.solver``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace_id = -1
        self._stack: list[int] = []
        self._originals: dict[str, Any] = {}

    def call(self, name: str, fn: Callable, *args, counters=None, **kwargs):
        """Run ``fn`` inside a span; ``counters(args, result)`` gives the
        work counts recorded on it."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, self.trace_id)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if counters is not None:
            span.counters = counters(args, result)
        return result

    def install(self, module) -> None:
        for attr, (name, counters) in _WRAPPED.items():
            original = getattr(module, attr)
            self._originals[attr] = original

            @functools.wraps(original)
            def traced(*args, _fn=original, _name=name, _counters=counters, **kwargs):
                return self.call(_name, _fn, *args, counters=_counters, **kwargs)

            setattr(module, attr, traced)

    def uninstall(self, module) -> None:
        for attr, original in self._originals.items():
            setattr(module, attr, original)
        self._originals.clear()

    def write(self, path: Path) -> None:
        """Gzipped tab-separated spans, one per line after a header; an
        approx-wide run records a few hundred thousand."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart\tend\tparent\ttrace\tcounters\n")
            for i, s in enumerate(self.spans):
                counters = json.dumps(s.counters) if s.counters else ""
                out.write(
                    f"{i}\t{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\t{s.trace_id}\t{counters}\n"
                )

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children
        (children never overlap: the run is single-threaded)."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer busy time and work counts.  A network span nested in
        another network span (run_to_convergence inside distributed_lae)
        is the same consensus run and is counted once, at the outer one."""
        busy: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        runs = rounds = node_rounds = unconverged = hits = 0
        for s in self.spans:
            if s.name in NETWORK:
                if s.parent >= 0 and self.spans[s.parent].name in NETWORK:
                    continue
                c = s.counters or {}  # a run that raised recorded none
                runs += 1
                rounds += c.get("rounds", 0)
                node_rounds += c.get("rounds", 0) * c.get("n", 0)
                unconverged += not c.get("converged", False)
                busy["network"] += s.end - s.start
                continue
            busy[s.name] += s.end - s.start
            calls[s.name] += 1
            if s.name == "search":
                hits += (s.counters or {}).get("hits", 0)
        own = self.self_times()
        solver_self = sum(
            t for s, t in zip(self.spans, own) if s.name in ("problem", "solver")
        )
        return {
            "network.busy_s": busy["network"],
            "network.runs": runs,
            "network.rounds": rounds,
            "network.node_rounds": node_rounds,
            "network.us_per_node_round": (
                busy["network"] * 1e6 / node_rounds if node_rounds else 0.0
            ),
            "network.unconverged_runs": unconverged,
            "network.converged_ratio": (runs - unconverged) / runs if runs else 1.0,
            "linalg.fit_calls": calls["linalg.fit"],
            "linalg.fit_s": busy["linalg.fit"],
            "linalg.dist_calls": calls["linalg.dist"],
            "linalg.dist_s": busy["linalg.dist"],
            "solver.calibrate_s": busy["solver.calibrate"],
            "search.calls": calls["search"],
            "search.busy_s": busy["search"],
            "search.hits": hits,
            "solver.lift_s": busy["solver.lift"],
            "problem.load_s": busy["problem.load"],
            "solver.self_s": solver_self,
        }
