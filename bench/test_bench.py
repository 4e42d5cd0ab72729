"""Smoke tests of the benchmark itself: python3 -m pytest bench/test_bench.py

Each workload runs at its smoke size; the traced run is made twice and its
deterministic counters must repeat exactly.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ["prove-fact", "script-fact", "search-q", "large-kb"]
# per round: large-kb attempts five operations, two of them the known faults
KNOWN_FAILED_SHARE = {"large-kb": 2 / 5}


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"),
                           "--smoke", "--seconds", "1", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    out = result("--workload", workload, "--seed", "7", "--trace", "0")
    assert out["correct"] is True
    assert out["failed"] == out["attempted"] * KNOWN_FAILED_SHARE.get(workload, 0)
    units = {k: v["unit"] for k, v in out["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first, second = (result("--workload", workload, "--seed", "7", "--trace", "1")
                     for _ in range(2))
    units = {k: v["unit"] for k, v in first["metrics"].items()}
    assert units == declared("per_layer")
    for run in (first, second):
        assert run["failed"] == run["attempted"] * KNOWN_FAILED_SHARE.get(workload, 0)
    counts = [{k: v["value"] for k, v in run["metrics"].items()
               if v["unit"] == "count"} for run in (first, second)]
    assert counts[0] == counts[1]
    for counter in ("prover.search_nodes", "solver.close_calls", "solver.unify_calls"):
        assert counter in counts[0]


def test_all_prints_each_workload_then_their_sum():
    proc = bench("--seed", "7")
    assert proc.returncode == 0, proc.stderr
    *lines, last = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    assert [line["workload"] for line in lines] == WORKLOADS
    assert last["correct"] is True
    assert last["attempted"] == sum(line["attempted"] for line in lines)
    assert last["failed"] == sum(line["failed"] for line in lines)
    assert last["metrics"] == {f"{line['workload']}.{k}": v for line in lines
                               for k, v in line["metrics"].items()}


def test_refuses_to_run_without_the_program():
    # a directory holding only BENCHMARK.json and bench/, inside the checkout
    bare = os.path.join(BENCH, ".work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench("--workload", "search-q", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
