import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coli import init_configuration, load_kb
from coli.prover import Bounds
from coli.scripts import ListChannel, ScriptEnv, parse_script, run_script
from coli.terms import App

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"


def app(fn, *args) -> App:
    """The application fn(args...), written shortly."""
    return App(fn, tuple(args))


def data_text(name: str) -> str:
    return (DATA / name).read_text()


def data_path(name: str) -> str:
    return str(DATA / name)


def run_python(*args) -> subprocess.CompletedProcess:
    """``python ARGS`` in a child process that imports coli from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, timeout=60, env=env)


def run_coli(*args) -> subprocess.CompletedProcess:
    """``python -m coli ARGS`` in a child process that imports coli from src/."""
    return run_python("-m", "coli", *args)


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


def large_kb_text(rng, services: int, families: int) -> str:
    """A KB shaped like the benchmark's large-kb, at a chosen size: fact.kb's
    three services, parameterised families /t(0), /t(s(X)) = t(X) /\\ !/t(X),
    and services of four shapes in turn: a replicable rule, a copied /t(3),
    the shared /t(2) twice in one body, and a machine choice behind $."""
    lines = ["/c = fact(0,1)", "/d = $ @x. @y. (fact(x,y) -> fact(x+1, x*y+y))",
             "/query = @y. #z. fact(y,z)"]
    for f in range(families):
        lines += [f"/t{f}(0) = t{f}({rng.randrange(100)})",
                  f"/t{f}(s(X)) = t{f}(X) /\\ !/t{f}(X)"]
    for i in range(services):
        t, k = f"t{rng.randrange(families)}", rng.randrange(1, 100)
        lines.append(f"/s{i} = " + [
            f"$ @x. @y. (r{i}(x,y) -> r{i}(y, x+{k}))",
            f"$ @x. (r{i}(x) -> !/{t}(3))",
            f"$ @x. (/{t}(2) /\\ r{i}(x,{k}) -> /{t}(2))",
            f"$ #x. (r{i}(x) \\/ r{i}({k}))"][i % 4])
    rng.shuffle(lines)
    return "\n".join(lines) + "\nquery /query\n"
