"""Benchmark for coli: four workloads, end-to-end metrics, a traced per-layer run.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--smoke]

A run generates the workload's KB and script files from the seed, then
repeats whole rounds of its operations for --seconds, in this one process
and with no threads.  Every verdict is checked against an answer computed
without coli.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

With --trace 0 the metrics are end to end: setup_s (median over fresh
interpreters spread over the run, start to initial configurations), wall_s
(mean time of one round), hardest_s (mean time of the round's largest
operation) and peak_rss_mb.  Times are means over rounds, not medians: the
machine switches between a fast and a slow state for seconds at a time, and
the median of such a mixture jumps from one state to the other as the share
of slow seconds crosses one half, while the mean moves in proportion.  With
--trace 1 untraced and traced rounds alternate, and the metrics are the
per-layer counts of one traced round, the per-layer times (mean over traced
rounds) and the tracing overhead (mean traced round minus mean untraced
round).  With --workload all every workload runs in a child process of its
own.  The exit code is 0 only when every check
passed; the two known faults of the program count as failed operations,
any other failure makes the run exit 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 9

END_TO_END = {"setup_s": "s", "wall_s": "s", "hardest_s": "s",
              "peak_rss_mb": "MB"}


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "coli", "__init__.py")):
        sys.exit(f"error: no coli sources under {SRC}")
    sys.path.insert(0, SRC)


_import_program()
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class RoundFailed(Exception):
    """An operation failed in a way that is not one of the known faults."""


@dataclass
class Tally:
    """Operations attempted and failed so far; it survives an aborted round."""
    attempted: int = 0
    failed: int = 0


def run_round(workload, tally):
    """One pass over the operations: (wall time, hardest op time)."""
    hardest = None
    gc.collect()  # every round starts from a collected heap
    start = time.perf_counter()
    for op in workload.ops:
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            op.run()
        except workloads.Mismatch as exc:
            tally.failed += 1
            raise RoundFailed(f"{op.name}: wrong answer: {exc}") from exc
        except Exception as exc:
            tally.failed += 1
            if op.known_fault is None or not isinstance(exc, op.known_fault):
                raise RoundFailed(f"{op.name}: {type(exc).__name__}: {exc}") from exc
        if op.name == workload.hardest:
            hardest = time.perf_counter() - t0
    return time.perf_counter() - start, hardest


def measure_setup(kb_files):
    """Time from starting a fresh interpreter to its 'ready' line."""
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, probe, *kb_files],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            sys.exit(f"error: set-up probe failed: {line!r}")
    return elapsed


def run_untraced(workload, seconds, tally):
    """End-to-end metrics of whole rounds repeated for `seconds`.

    The set-up probes are spread evenly over the run, between rounds, so
    that they sample the same stretch of the machine's drift as the rounds.
    """
    walls, hardest, setups = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() < start + seconds:
        due = (time.perf_counter() - start) * SETUP_PROBES / seconds
        if len(setups) < SETUP_PROBES and len(setups) <= due:
            setups.append(measure_setup(workload.setup_kbs))
        wall, hard = run_round(workload, tally)
        walls.append(wall)
        hardest.append(hard)
    while len(setups) < SETUP_PROBES:  # rounds longer than the run's share
        setups.append(measure_setup(workload.setup_kbs))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {"setup_s": statistics.median(setups),
              "wall_s": statistics.mean(walls),
              "hardest_s": statistics.mean(hardest),
              "peak_rss_mb": peak_kb / 1024}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def run_traced(name, workload, seconds, tally):
    """Per-layer metrics; untraced and traced rounds alternate, so both see
    the same machine."""
    tracer = tracing.Tracer()
    walls: dict = {False: [], True: []}
    per_round = []
    deadline = time.perf_counter() + seconds
    while not walls[True] or time.perf_counter() < deadline:
        traced = len(walls[False]) > len(walls[True])
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, _hard = run_round(workload, tally)
        finally:
            tracer.uninstall()
        walls[traced].append(wall)
        if traced:
            per_round.append(tracer.layer_metrics())
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    tracer.write_spans(os.path.join(BENCH_DIR, "out", f"spans-{name}.jsonl"))
    metrics = {}
    for metric, unit in tracing.LAYER_METRICS.items():
        # times vary between rounds: their mean; counts repeat: the first round
        value = (statistics.mean(r[metric] for r in per_round) if unit == "s"
                 else per_round[0][metric])
        metrics[metric] = {"value": value, "unit": unit}
    untraced, traced = statistics.mean(walls[False]), statistics.mean(walls[True])
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": (traced - untraced) / untraced,
                                       "unit": "ratio"}
    return metrics


def run_one(args, sizes):
    """One workload in this process; prints its result line."""
    workdir = os.path.join(BENCH_DIR, ".work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    tally, metrics, correct = Tally(), {}, True
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, sizes)
        if args.trace:
            metrics = run_traced(args.workload, workload, args.seconds, tally)
        else:
            metrics = run_untraced(workload, args.seconds, tally)
    except RoundFailed:
        traceback.print_exc()
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, argv):
    """Every workload in a child process of its own, so that each
    peak_rss_mb is that workload's own peak.  Each child's result is
    printed with its workload's name; the last line sums the counts and
    prefixes each metric with its workload, as in prove-fact.wall_s."""
    total, metrics, correct = Tally(), {}, True
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), *argv,
                               "--workload", name],
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            sys.exit(f"error: workload {name} exited with code "
                     f"{proc.returncode} and no result")
        out = json.loads(lines[-1])
        print(json.dumps({"workload": name, **out}), flush=True)
        total.attempted += out["attempted"]
        total.failed += out["failed"]
        metrics.update({f"{name}.{k}": v for k, v in out["metrics"].items()})
        if proc.returncode != 0 or not out["correct"]:
            correct = False
            break
    print(json.dumps({"correct": correct, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, argv)
    return run_one(args, workloads.SMOKE if args.smoke else workloads.FULL)


if __name__ == "__main__":
    sys.exit(main())
