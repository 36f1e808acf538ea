"""Seeded problem generator and the workload definitions of the benchmark.

The generator is independent of the program under test: it builds its own
formula trees, evaluates them itself to plant solutions, and emits problem
documents in the ``problems/*.json`` shape, which the program then parses.

A workload is a fixed corpus of random systems (drawn once from the
workload's own corpus seed, walking its (m, n) grid diagonally, and for
sat-mixed filled class by class to a fixed share of stage-one
disagreements, Boolean-unsatisfiable consistent lifts and satisfiable
systems) seen through a symmetry chosen by the run seed: the seed permutes and negates
the variables, relabels the nodes, shuffles the problem order and draws
every consensus seed.  Each run therefore gets new documents with new
solution sets, while the cost of every problem stays the same: renaming
or negating variables only permutes the coordinates of the lifted linear
system, and relabeling nodes only reorders the network.  Costs of freshly
drawn systems are so heavy-tailed (a few take 10x the median) that a
run's worth of them cannot give steady medians from seed to seed.
Identical (workload, seed) pairs give identical documents.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any

FORMULA_DEPTH = 3
EXTRA_EDGE_P = 0.3  # chance of each non-tree edge

# formula nodes: ("var", k) | ("const", b) | ("not", f) | (op, f, g)
_BINARY = ("and", "or", "implies", "iff")
_SYMBOL = {"and": "&", "or": "|", "implies": "->", "iff": "<->"}


def random_formula(rng: random.Random, m: int, depth: int = FORMULA_DEPTH) -> tuple:
    """Random formula of depth <= ``depth`` over x1..xm; leaves are mostly
    variables, so equations seldom collapse to constants."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.08:
            return ("const", rng.randrange(2))
        return ("var", rng.randrange(1, m + 1))
    op = rng.randrange(5)
    if op == 0:
        return ("not", random_formula(rng, m, depth - 1))
    return (
        _BINARY[op - 1],
        random_formula(rng, m, depth - 1),
        random_formula(rng, m, depth - 1),
    )


def evaluate(f: tuple, x: tuple[int, ...]) -> int:
    kind = f[0]
    if kind == "var":
        return x[f[1] - 1]
    if kind == "const":
        return f[1]
    if kind == "not":
        return 1 - evaluate(f[1], x)
    a, b = evaluate(f[1], x), evaluate(f[2], x)
    if kind == "and":
        return a & b
    if kind == "or":
        return a | b
    if kind == "implies":
        return (1 - a) | b
    return int(a == b)


def render(f: tuple) -> str:
    """Concrete syntax with every binary node parenthesized."""
    kind = f[0]
    if kind == "var":
        return f"x{f[1]}"
    if kind == "const":
        return str(f[1])
    if kind == "not":
        return "!" + render(f[1])
    return f"({render(f[1])} {_SYMBOL[kind]} {render(f[2])})"


def random_connected_edges(rng: random.Random, n: int, extra: float = EXTRA_EDGE_P) -> list[list[int]]:
    """Random spanning tree on 1..n plus each remaining pair with
    probability ``extra``; returned as sorted 1-based [i, j] pairs."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for k in range(1, n):
        parent = order[rng.randrange(k)]
        edges.add((min(parent, order[k]), max(parent, order[k])))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and rng.random() < extra:
                edges.add((i, j))
    return [list(e) for e in sorted(edges)]


@dataclass(frozen=True)
class BaseSystem:
    """A corpus entry: formula trees with right-hand sides, and the graph."""

    m: int
    equations: tuple[tuple[tuple, int], ...]
    edges: tuple[tuple[int, int], ...]


def random_system(rng: random.Random, m: int, n: int, planted: bool) -> BaseSystem:
    """``planted`` draws a hidden assignment and sets every right-hand side
    to the formula's value there, so the system is satisfiable; otherwise
    right-hand sides are fair coin flips."""
    target = tuple(rng.randrange(2) for _ in range(m))
    equations = []
    for _ in range(n):
        f = random_formula(rng, m)
        equations.append((f, evaluate(f, target) if planted else rng.randrange(2)))
    edges = tuple(tuple(e) for e in random_connected_edges(rng, n))
    return BaseSystem(m, tuple(equations), edges)


def classify(base: BaseSystem) -> str:
    """Which path ``verify_satisfiability`` should take on ``base``:
    "inconsistent" when the lifted linear system has no real solution
    (stage one), else "unsat" when no assignment satisfies every equation
    (empty search), else "sat".  Computed here from the generator's own
    formula trees, independently of the program."""
    import numpy as np  # lazy: the launcher caps BLAS threads first

    m = base.m
    points = [tuple((i >> (m - 1 - k)) & 1 for k in range(m)) for i in range(2**m)]
    if not any(all(evaluate(f, x) == rhs for f, rhs in base.equations) for x in points):
        rows, rhs_col = [], []
        for f, rhs in base.equations:
            hit = [float(evaluate(f, x) == rhs) for x in points]
            rows += [hit, [1.0 - h for h in hit]]
            rhs_col += [1.0, 0.0]
        h = np.array(rows)
        hz = np.column_stack([h, rhs_col])
        consistent = np.linalg.matrix_rank(h) == np.linalg.matrix_rank(hz)
        return "unsat" if consistent else "inconsistent"
    return "sat"


def rename(f: tuple, perm: list[int], flip: list[int]) -> tuple:
    """Substitute x_k -> x_perm[k], negated where flip[k] is set."""
    kind = f[0]
    if kind == "var":
        leaf = ("var", perm[f[1] - 1])
        return ("not", leaf) if flip[f[1] - 1] else leaf
    if kind == "const":
        return f
    return (kind, *(rename(g, perm, flip) for g in f[1:]))


def symmetric_document(
    base: BaseSystem, rng: random.Random, config: dict[str, Any]
) -> dict[str, Any]:
    """Problem document of a random symmetry image of ``base``: variables
    permuted and negated, nodes relabeled, a fresh consensus seed.  The
    solution set is the image of the base system's, so satisfiability is
    kept."""
    m, n = base.m, len(base.equations)
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    flip = [rng.randrange(2) for _ in range(m)]
    label = list(range(1, n + 1))  # label[i - 1]: new id of node i
    rng.shuffle(label)
    equations: list[dict[str, Any]] = [{}] * n
    for i, (f, rhs) in enumerate(base.equations):
        equations[label[i] - 1] = {"formula": render(rename(f, perm, flip)), "rhs": rhs}
    edges = sorted(sorted((label[a - 1], label[b - 1])) for a, b in base.edges)
    return {
        "m": m,
        "equations": equations,
        "edges": edges,
        "config": {**config, "seed": rng.randrange(2**31)},
    }


@dataclass(frozen=True)
class Workload:
    """What a workload runs (``mode``: the solver entry point) on which
    generated inputs; BENCHMARK.json and README.md say why."""

    name: str
    mode: str  # "solve" | "solve-approx" | "sat"
    ms: tuple[int, ...]
    ns: tuple[int, ...]
    planted: bool
    pool: int  # corpus size: problems per pass
    config: dict[str, Any] = field(default_factory=dict)
    mix: dict[str, int] | None = None  # problems per classify() class
    scale: bool = True  # report latencies scaled by reference() (see bench.py)

    def __post_init__(self) -> None:
        if self.mix is not None and sum(self.mix.values()) < self.pool:
            raise ValueError(f"{self.name}: mix {self.mix} holds fewer than {self.pool} problems")

    @property
    def corpus_seed(self) -> str:
        return f"{self.name}:corpus"

    def grid(self, k: int) -> tuple[int, int]:
        """(m, n) of corpus entry k: a diagonal walk that visits every
        pair once per len(ms) * len(ns) entries and keeps both m and n
        balanced in every prefix."""
        lcm = math.lcm(len(self.ms), len(self.ns))
        return self.ms[k % len(self.ms)], self.ns[(k + k // lcm) % len(self.ns)]

    def corpus(self) -> list[BaseSystem]:
        """``pool`` systems along the grid walk; with ``mix``, a drawn
        system whose class is already full is skipped."""
        rng = random.Random(self.corpus_seed)
        if self.mix is None:
            return [random_system(rng, *self.grid(k), self.planted) for k in range(self.pool)]
        left = dict(self.mix)
        out: list[BaseSystem] = []
        k = 0
        while len(out) < self.pool:
            base = random_system(rng, *self.grid(k), self.planted)
            k += 1
            kind = classify(base)
            if left[kind]:
                left[kind] -= 1
                out.append(base)
        return out

    def generate(self, seed: int) -> list[dict[str, Any]]:
        """The run's problem documents, one per corpus entry."""
        rng = random.Random(f"{self.name}:{seed}")
        docs = [symmetric_document(b, rng, self.config) for b in self.corpus()]
        rng.shuffle(docs)
        return docs

    def params(self) -> dict[str, Any]:
        """Generator parameters, recorded in every result."""
        return {
            "mode": self.mode,
            "m": list(self.ms),
            "n": list(self.ns),
            "planted": self.planted,
            "pool": self.pool,
            "corpus_seed": self.corpus_seed,
            "formula_depth": FORMULA_DEPTH,
            "extra_edge_p": EXTRA_EDGE_P,
            "config": self.config,
            "mix": self.mix,
            "scale": self.scale,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-small",
            "solve",
            ms=(3, 4),
            ns=(3, 4, 5, 6),
            planted=True,
            pool=8,
        ),
        Workload(
            "approx-wide",
            "solve-approx",
            ms=(7,),
            ns=(3, 4),
            planted=True,
            pool=3,
            config={"T": 300},
            scale=False,
        ),
        Workload(
            "sat-mixed",
            "sat",
            ms=(3, 4, 5),
            ns=(3, 4, 5, 6, 7, 8),
            planted=False,
            pool=11,
            mix={"inconsistent": 6, "unsat": 3, "sat": 2},
        ),
    )
}
