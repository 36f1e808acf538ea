"""Self-test of the benchmark on tiny inputs: every metric that
BENCHMARK.json declares is reported, a deliberately wrong answer counts as
a failure, the sat-mixed corpus holds the classes it claims, and the
launcher refuses to run without the program's sources.

    python3 perfbench/selftest.py      (or: python3 -m pytest perfbench/selftest.py)
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as launcher  # noqa: E402

NPROC = launcher.cap_threads()
sys.path.insert(0, str(launcher.SRC))

import bench  # noqa: E402
from netbool import solver as nb_solver  # noqa: E402
from workloads import WORKLOADS, classify  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    name: dataclasses.replace(w, ms=(3,), ns=(3,), pool=2)
    for name, w in WORKLOADS.items()
}


def _check_report(name: str, trace: bool) -> None:
    key = "per_layer" if trace else "end_to_end"
    lines, result = bench.run(TINY[name], 1, 0.01, trace, NPROC)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    text = "\n".join(lines)
    for metric in declared:
        assert f"metric {metric} = " in text, metric
    if not trace:
        assert "metric fail_ratio = 0 " in text
        assert ("metric approx_match_ratio = " in text) == (name == "approx-wide")
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_declared_metric_is_reported():
    for name in TINY:
        for trace in (False, True):
            _check_report(name, trace)


def test_wrong_answer_counts_in_fail_ratio():
    original = nb_solver.solve_exact

    def drops_a_solution(system, graph, config=None):
        outcome = original(system, graph, config)
        return dataclasses.replace(outcome, solutions=outcome.solutions[1:])

    nb_solver.solve_exact = drops_a_solution
    try:
        lines, result = bench.run(TINY["exact-small"], 1, 0.01, False, NPROC)
    finally:
        nb_solver.solve_exact = original
    assert result["failed"] == result["attempted"] > 0
    assert result["correct"] is False
    assert any(line.startswith("metric fail_ratio = 1 ") for line in lines)
    assert any(line.startswith("failure: ") for line in lines)


def test_sat_corpus_classes_match_the_oracle():
    w = WORKLOADS["sat-mixed"]
    where = bench.OUT / "selftest-classes"
    shutil.rmtree(where, ignore_errors=True)
    try:
        paths, _ = bench.write_docs(w, 1, where)
        kinds = sorted(classify(b) for b in w.corpus())
        sat = sorted(bool(nb_solver.oracle_solve(bench.load(p)[0])) for p in paths)
    finally:
        shutil.rmtree(where, ignore_errors=True)
    assert kinds == sorted(k for k, count in w.mix.items() for _ in range(count))
    assert sat.count(True) == kinds.count("sat")


def test_refuses_to_run_without_sources():
    where = bench.OUT / "selftest-bare"
    shutil.rmtree(where, ignore_errors=True)
    try:
        shutil.copytree(HERE, where / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", where)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact-small",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=where, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(where, ignore_errors=True)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


if __name__ == "__main__":
    for test in (
        test_every_declared_metric_is_reported,
        test_wrong_answer_counts_in_fail_ratio,
        test_sat_corpus_classes_match_the_oracle,
        test_refuses_to_run_without_sources,
    ):
        test()
        print(f"ok {test.__name__}")
