import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coli import init_configuration, load_kb
from coli.prover import Bounds
from coli.scripts import ListChannel, ScriptEnv, parse_script, run_script

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"


def data_text(name: str) -> str:
    return (DATA / name).read_text()


def data_path(name: str) -> str:
    return str(DATA / name)


def run_coli(*args) -> subprocess.CompletedProcess:
    """``python -m coli ARGS`` in a child process that imports coli from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "coli", *args],
                          capture_output=True, text=True, timeout=60, env=env)


def factorial(n: int) -> int:
    return math.prod(range(1, n + 1))


@pytest.fixture
def default_recursion_limit():
    """Run a test at the interpreter's default recursion limit."""
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(previous)


def graph_depth(graph) -> int:
    """Longest root-to-leaf edge count of a formula graph, each node once."""
    memo: dict = {}

    def depth(nid):
        if nid not in memo:
            kids = graph.nodes[nid].children
            memo[nid] = 1 + max(map(depth, kids)) if kids else 0
        return memo[nid]

    return depth(graph.root)


def snapshot(cfg):
    """Everything a move may change: two configurations with equal
    snapshots hold the same position under the same node ids."""
    return (dict(cfg.nodes), dict(cfg.roots), list(cfg.trace), cfg.next_gvar,
            cfg.shared)


def run_game(kb: str, script: str, inputs, bounds: Bounds | None = None,
             trace=False):
    """Load KB + script from tests/data, play one session in process.

    Returns (outcome, final configuration, trace lines)."""
    table = load_kb(data_text(kb))
    cfg = init_configuration(table)
    lines: list[str] = []
    env = ScriptEnv(channel=ListChannel(inputs),
                    bounds=bounds or Bounds(),
                    trace_sink=lines.append if trace else None)
    outcome, final = run_script(parse_script(data_text(script)), cfg, env)
    return outcome, final, lines


@pytest.fixture
def fact_table():
    return load_kb(data_text("fact.kb"))


@pytest.fixture
def fact_config(fact_table):
    return init_configuration(fact_table)
