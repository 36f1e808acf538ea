"""Closed-loop benchmark runner: one client in one process submits the
workload's problems one after another, each parsed from its problem file
and solved through the public entry points of ``netbool.solver``.

Untraced runs measure the end-to-end metrics; traced runs wrap the
solver's layer calls (see ``tracing.py``) and report per-layer metrics.
Every result is checked against ``oracle_solve`` after the timed phase.

Importing this module imports numpy, so the launcher caps the BLAS thread
count before it does.
"""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
from netbool import solver as nb_solver
from netbool.problem import load_problem, merge_config

from tracing import Tracer
from workloads import Workload, random_system, symmetric_document

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
ENTRY = {
    "solve": "solve_exact",
    "solve-approx": "solve_approximate",
    "sat": "verify_satisfiability",
}
SETUP_SAMPLES = 5
REF_S = 0.004  # wall time of reference() on a quiet host: scaled latencies are at that speed
BURST_S = 1.0  # per pass, a cheap problem is solved again until about this much time is spent on it
MAX_BURST = 8
STAGES = {
    "consensus-disagreement": "sat.stage.disagreement",
    "empty-solution-set": "sat.stage.empty",
    "solved": "sat.stage.solved",
}

# Runs in a fresh interpreter: import the package, then one warm-up call.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from netbool import solver
from netbool.problem import load_problem, merge_config
p = load_problem(sys.argv[3])
getattr(solver, sys.argv[2])(p.system(), p.graph(), merge_config(p, {}))
print(time.perf_counter() - t0)
"""


@dataclass(frozen=True)
class Result:
    """What the correctness check and the counters need from one outcome."""

    solutions: frozenset = frozenset()
    per_node: tuple[frozenset, ...] | None = None
    verdict: str | None = None
    stage: str | None = None
    converged: bool = True  # the program's own convergence report
    fitted_dims: tuple[int, ...] = ()
    rejected: int = 0
    error: str | None = None


def summarize(mode: str, outcome) -> Result:
    d = outcome.diagnostics
    if mode == "sat":
        converged = d["limits_converged"] and d["average_converged"] and d.get("converged", True)
    else:
        converged = d.get("converged", True)  # fixed-T runs report no convergence
    return Result(
        solutions=frozenset(outcome.solutions),
        per_node=(
            None
            if outcome.per_node_solutions is None
            else tuple(frozenset(s) for s in outcome.per_node_solutions)
        ),
        verdict=outcome.verdict,
        stage=outcome.stage,
        converged=bool(converged),
        fitted_dims=tuple(d.get("fitted_dims", ())),
        rejected=sum(len(r) for r in d.get("rejected", ())),
    )


def load(path: Path):
    p = load_problem(path)
    return p.system(), p.graph(), merge_config(p, {})


def solve_file(mode: str, path: Path):
    """Parse to result: the per-problem unit of work."""
    return getattr(nb_solver, ENTRY[mode])(*load(path))


def solve_traced(mode: str, path: Path, tracer: Tracer):
    def body():
        args = tracer.call("problem.load", load, path)
        return tracer.call("solver", getattr(nb_solver, ENTRY[mode]), *args)

    return tracer.call("problem", body)


def attempt(mode: str, fn, *args) -> tuple[Result, float]:
    """Run and time one problem; an exception is a counted failure, not an
    abort."""
    t0 = time.perf_counter()
    try:
        outcome = fn(*args)
    except Exception as exc:  # noqa: BLE001 - every failure is reported
        return Result(error=f"{type(exc).__name__}: {exc}"), time.perf_counter() - t0
    dt = time.perf_counter() - t0
    return summarize(mode, outcome), dt


_MIX = np.full((6, 6), 1 / 6)
_PROJ = np.eye(16) - np.full((16, 16), 1 / 16)


def reference() -> float:
    """Wall time of a fixed computation of the benchmark's own: rounds of
    small-matrix numpy products, the kind of step the solvers spend their
    time in.  The host the benchmark was defined on runs numpy code 1.3 to
    2 times slower for seconds to minutes at a time; the solvers and this
    computation slow down together (their ratio stayed within 5-8% over
    30 s windows while each alone moved by 30%), so its time next to a
    solve measures the host's speed at that moment."""
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 96).reshape(6, 16)
    for _ in range(320):
        x = _MIX @ x
        for row in range(6):
            x[row] = _PROJ @ x[row] + 0.01
    return time.perf_counter() - t0


def timed_passes(mode: str, paths: list[Path], seconds: float):
    """Whole passes over the problem files while another pass still fits
    in ``seconds``; at least one.  From the second pass on, a problem whose
    first solve took less than BURST_S / 2 is solved several times in a
    row, so that cheap problems get more samples.  ``reference()`` runs
    before the first solve and after every solve.

    Returns per problem the wall time of every solve, the same scaled to
    the host speed at which ``reference()`` takes REF_S (by the mean of
    the references just before and after the solve), the results, and the
    pass times."""
    walls: list[list[float]] = [[] for _ in paths]
    scaled: list[list[float]] = [[] for _ in paths]
    results: list[list[Result]] = [[] for _ in paths]
    pass_times: list[float] = []
    start = time.perf_counter()
    refs = [reference()]
    while True:
        t_pass = time.perf_counter()
        for i, path in enumerate(paths):
            burst = min(MAX_BURST, max(1, int(BURST_S / walls[i][0]))) if walls[i] else 1
            burst_walls, burst_scaled = [], []
            for _ in range(burst):
                result, dt = attempt(mode, solve_file, mode, path)
                refs.append(reference())
                burst_walls.append(dt)
                burst_scaled.append(dt * 2 * REF_S / (refs[-2] + refs[-1]))
                results[i].append(result)
            walls[i].append(statistics.median(burst_walls))
            scaled[i].append(statistics.median(burst_scaled))
        pass_times.append(time.perf_counter() - t_pass)
        if time.perf_counter() - start + max(pass_times) > seconds:
            return walls, scaled, refs, results, pass_times


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failures the program did not flag as unconverged
    matched: int = 0  # every node's set equals the oracle's
    oracle_s: float = 0.0
    notes: list[str] = field(default_factory=list)


def check(mode: str, paths: list[Path], results: list[list[Result]]) -> Check:
    """Compare every result with ``oracle_solve``.

    A failure is an exception, a solution set that differs from the
    oracle's, or a wrong satisfiability verdict (approximate mode may
    miss solutions; that is what ``approx_match_ratio`` tracks).  A
    failure on a problem whose consensus the program itself reported as
    unconverged counts in ``failed`` only; any other failure also makes
    the run incorrect.
    """
    c = Check()
    for path, rs in zip(paths, results):
        system = load_problem(path).system()
        t0 = time.perf_counter()
        oracle = frozenset(nb_solver.oracle_solve(system))
        c.oracle_s += time.perf_counter() - t0
        for r in rs:
            c.attempted += 1
            c.matched += r.per_node is not None and all(s == oracle for s in r.per_node)
            if r.error:
                reason = r.error
            elif mode == "solve" and r.solutions != oracle:
                reason = "solution set differs from the oracle"
            elif mode == "sat" and (r.verdict == "satisfiable") != bool(oracle):
                reason = f"verdict {r.verdict} at stage {r.stage}, oracle has {len(oracle)} solutions"
            elif mode == "sat" and r.verdict == "satisfiable" and r.solutions != oracle:
                reason = "solution set differs from the oracle"
            else:
                continue
            c.failed += 1
            flagged = not r.error and not r.converged
            c.wrong += not flagged
            c.notes.append(
                f"failure: {path.name} (m={system.m}, n={system.n}): {reason}"
                + ("; program reported unconverged consensus" if flagged else "")
            )
    return c


def setup_times(mode: str, warmup: Path) -> list[float]:
    """Import plus first-call warm-up, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(ROOT / "src"), ENTRY[mode], str(warmup)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def tail(values: list[float]) -> float:
    """The p90, interpolated between the two nearest values.  The highest
    percentile with 10 samples beyond it would need 20 problems; the
    corpora are smaller, so that a run has room for several passes."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def environment(workload: Workload, seed: int, nproc: int) -> dict[str, Any]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25 has no dict form
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "machine": platform.machine(),
        "workload": workload.name,
        "seed": seed,
        "generator": workload.params(),
    }


def write_docs(workload: Workload, seed: int, where: Path) -> tuple[list[Path], Path]:
    where.mkdir(parents=True)
    paths = []
    for i, doc in enumerate(workload.generate(seed)):
        paths.append(where / f"p{i:03d}.json")
        paths[-1].write_text(json.dumps(doc))
    # a tiny fixed problem for the warm-up calls
    tiny = random_system(random.Random("warm-up"), 3, 3, planted=True)
    warmup = where / "warmup.json"
    warmup.write_text(json.dumps(symmetric_document(tiny, random.Random(0), workload.config)))
    return paths, warmup


def run(workload: Workload, seed: int, seconds: float, trace: bool, nproc: int):
    """One benchmark run.  Returns (report lines, result object)."""
    env = environment(workload, seed, nproc)
    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    work = OUT / f"docs-{workload.name}-{seed}-{os.getpid()}"
    try:
        paths, warmup = write_docs(workload, seed, work)
        solve_file(workload.mode, warmup)
        if trace:
            metrics, c = traced_run(workload, paths, lines)
        else:
            metrics, c = untraced_run(workload, seconds, paths, warmup, lines)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines += c.notes
    result = {
        "correct": c.wrong == 0,
        "attempted": c.attempted,
        "failed": c.failed,
        "metrics": metrics,
    }
    return lines, result


def untraced_run(workload, seconds, paths, warmup, lines):
    """End-to-end metrics over per-problem latencies: each problem's median
    over the passes, of scaled times when the workload is scaled and of
    wall times otherwise."""
    mode = workload.mode
    setup = setup_times(mode, warmup)
    walls, scaled, refs, results, pass_times = timed_passes(mode, paths, seconds)
    c = check(mode, paths, results)
    per_wall = [statistics.median(ls) for ls in walls]
    per_scaled = [statistics.median(ls) for ls in scaled]
    per_problem = per_scaled if workload.scale else per_wall
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_ms": (statistics.median(per_problem) * 1e3, "ms"),
        "latency_tail_ms": (tail(per_problem) * 1e3, "ms"),
        "problems_per_s": (len(per_problem) / sum(per_problem), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines.append(
        f"closed loop, 1 client: {len(paths)} problems, {len(pass_times)} passes "
        f"in {sum(pass_times):.2f} s (passes {[round(t, 2) for t in pass_times]}); "
        f"setup samples {[round(t, 4) for t in setup]}"
    )
    lines.append(
        f"per-problem latency is the median over {len(pass_times)} passes of "
        f"{'scaled' if workload.scale else 'wall'} times; latency_tail_ms is "
        f"p90 of {len(per_problem)} per-problem latencies; "
        f"problems_per_s is problems over their sum"
    )
    for name, per in (("wall", per_wall), ("scaled", per_scaled)):
        lines.append(
            f"{name} times: latency_p50_ms {statistics.median(per) * 1e3:.6g} ms, "
            f"latency_tail_ms {tail(per) * 1e3:.6g} ms, problems_per_s {len(per) / sum(per):.6g} 1/s"
        )
    lines.append(f"reference() median {statistics.median(refs) * 1e3:.4g} ms, REF_S {REF_S * 1e3:g} ms")
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} = {value:.6g} {unit}")
    lines.append(f"metric fail_ratio = {c.failed / c.attempted:.6g} ratio ({c.failed}/{c.attempted})")
    if mode == "solve-approx":
        lines.append(
            f"metric approx_match_ratio = {c.matched / c.attempted:.6g} ratio ({c.matched}/{c.attempted})"
        )
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, c


def traced_run(workload, paths, lines):
    """One traced pass over every problem.  The first quarter of the
    problems (at least two) is also solved untraced, interleaved and in
    alternating order, for the overhead ratio."""
    mode = workload.mode
    tracer = Tracer()
    results: list[list[Result]] = []
    plain_s = traced_s = 0.0
    compared = max(2, len(paths) // 4)
    for i, path in enumerate(paths):
        if i < compared and i % 2:
            plain_s += attempt(mode, solve_file, mode, path)[1]
        tracer.trace_id = i
        tracer.install(nb_solver)
        try:
            result, dt = attempt(mode, solve_traced, mode, path, tracer)
        finally:
            tracer.uninstall(nb_solver)
        if i < compared:
            traced_s += dt
            if not i % 2:
                plain_s += attempt(mode, solve_file, mode, path)[1]
        results.append([result])
    c = check(mode, paths, results)
    spans_file = OUT / f"spans-{workload.name}.tsv.gz"
    tracer.write(spans_file)

    done = [rs[0] for rs in results]
    dims = [d for r in done for d in r.fitted_dims]
    stages = Counter(STAGES[r.stage] for r in done if r.stage in STAGES)
    layer = tracer.layer_metrics()
    layer.update({
        "linalg.fitted_dim_mean": sum(dims) / len(dims) if dims else 0.0,
        "search.rejected": sum(r.rejected for r in done),
        **{name: stages[name] for name in STAGES.values()},
        "oracle.busy_s": c.oracle_s,
        "trace.overhead_ratio": traced_s / plain_s,
        "trace.problems": len(paths),
    })
    metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in layer.items()}
    total = sum(s.end - s.start for s in tracer.spans if s.name == "problem")
    lines.append(f"traced {len(paths)} problems in {total:.2f} s; spans in {spans_file.relative_to(ROOT)}")
    for name, m in metrics.items():
        share = f" ({100 * m['value'] / total:.1f}% of traced problem time)" if m["unit"] == "s" and name != "oracle.busy_s" else ""
        lines.append(f"metric {name} = {m['value']:.6g} {m['unit']}{share}")
    return metrics, c


UNITS = {
    "network.busy_s": "s",
    "network.runs": "count",
    "network.rounds": "count",
    "network.node_rounds": "count",
    "network.us_per_node_round": "us",
    "network.unconverged_runs": "count",
    "network.converged_ratio": "ratio",
    "linalg.fit_calls": "count",
    "linalg.fit_s": "s",
    "linalg.dist_calls": "count",
    "linalg.dist_s": "s",
    "linalg.fitted_dim_mean": "dim",
    "solver.calibrate_s": "s",
    "search.calls": "count",
    "search.busy_s": "s",
    "search.hits": "count",
    "search.rejected": "count",
    "solver.lift_s": "s",
    "problem.load_s": "s",
    "sat.stage.disagreement": "count",
    "sat.stage.empty": "count",
    "sat.stage.solved": "count",
    "solver.self_s": "s",
    "oracle.busy_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.problems": "count",
}
