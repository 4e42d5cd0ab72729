"""Inputs, operations and independent checks of the four benchmark workloads.

Every workload is generated from a seed.  The seed chooses names, numerals,
environment values and definition order, never the amount of work: two
seeds give the same ladder of sizes, so a round costs the same whatever the
seed.  An operation takes one query from KB text to a verdict, the way one
`coli run` or `coli prove` invocation does, and its answer is checked against
a value computed here without coli (factorials, closed forms, node counts).
"""

from __future__ import annotations

import math
import os
import random
import string
import sys
from dataclasses import dataclass
from typing import Callable

import coli

# words the script grammar reserves; generated names must avoid them
_RESERVED = {"algorithm", "prove", "execute", "choose", "schoose", "for", "to",
             "if", "else", "read", "write", "replicate", "close", "query"}


class Mismatch(Exception):
    """An output of coli disagrees with the independently computed answer."""


@dataclass
class Op:
    """One query: `run` raises Mismatch when the verdict is wrong.

    `known_fault` names a fault of the program that makes this operation
    fail every time today; the exception it raises is counted as a failed
    operation instead of aborting the run.  When the fault is mended the
    operation returns its correct verdict and counts as a success.
    """
    name: str
    run: Callable[[], None]
    known_fault: type | None = None


@dataclass
class Workload:
    name: str
    ops: list
    hardest: str  # name of the operation reported as hardest_s
    setup_kbs: list  # KB files with a query line, for setup_s


@dataclass(frozen=True)
class Sizes:
    prove_ladder: tuple = (4, 8, 12)
    ident_values: int = 4
    script_ladder: tuple = (20, 40, 60)
    q_ladder: tuple = (4, 8, 12, 16)
    large_services: int = 2000
    large_families: int = 200
    large_fact_n: int = 8
    large_m: int = 250
    large_h: int = 200


FULL = Sizes()
SMOKE = Sizes(prove_ladder=(2, 3), ident_values=2, script_ladder=(3, 5),
              q_ladder=(2, 3), large_services=40, large_families=8,
              large_fact_n=3, large_m=20, large_h=10)

# The two known faults use fixed inputs, independent of the seed.
DEEP_PROVE_N = 330
DEEP_PARSE_N = 1000
REC_KB = "/m(0) = q\n/m(s(X)) = p /\\ !/m(X)\n"
# Whether prove on /m(330) overflows depends on how deep the caller's stack
# already is (it needs 996 of the default 1,000 frames from the top), so the
# benchmark always calls it from this fixed depth, as an application would
# from inside its own code; only a change to coli's recursion changes it.
CALLER_DEPTH = 40


class Names:
    """Distinct six-letter lowercase identifiers drawn from a seed; one fixed
    length keeps the cost of handling names the same for every seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set = set()

    def __call__(self) -> str:
        while True:
            name = "".join(self.rng.choice(string.ascii_lowercase)
                           for _ in range(6))
            if name not in self.used and name not in _RESERVED:
                self.used.add(name)
                return name


# texts ------------------------------------------------------------------

def fact_kb(c, d, query, pred):
    return (f"/{c} = {pred}(0,1)\n"
            f"/{d} = $ @x. @y. ({pred}(x,y) -> {pred}(x+1, x*y+y))\n"
            f"/{query} = @y. #z. {pred}(y,z)\n"
            f"query /{query}\n")


def fact_script(d, query):
    return (f"algorithm fact {{\n  /{query}.read(n);\n  for i = 1 to n {{\n"
            f"    /{d}.i.write;\n    /{d}.i.write;\n  }}\n"
            f"  /{query}.write;\n  execute;\n}}\n")


def prove_script(query=None):
    head = f"  /{query}.read(n);\n" if query else ""
    return f"algorithm search {{\n{head}  prove;\n  execute;\n}}\n"


def large_kb(rng: random.Random, names: Names, sizes: Sizes, fact: tuple):
    """A KB of thousands of definitions around fact.kb's three services.

    Returns (text, number of definition lines, name of /m, name of /h).
    Every count is fixed by `sizes`; the seed picks names, numerals and the
    order of the lines.
    """
    c, d, query, pred = fact
    lines = fact_kb(c, d, query, pred).splitlines()[:3]
    families = [names() for _ in range(sizes.large_families)]
    for t in families:
        lines.append(f"/{t}(0) = {t}({rng.randrange(1000)})")
        lines.append(f"/{t}(s(X)) = {t}(X) /\\ !/{t}(X)")
    for i in range(sizes.large_services):
        s, r = names(), names()
        t = families[i % len(families)]
        k = rng.randrange(1, 1000)
        shape = i % 4
        if shape == 0:    # a replicable rule on another predicate
            body = f"$ @x. @y. ({r}(x,y) -> {r}(y, x+{k}))"
        elif shape == 1:  # a copy reference to a parameterised clause
            body = f"$ @x. ({r}(x) -> !/{t}(3))"
        elif shape == 2:  # a shared reference, in-degree 2 in the store
            body = f"$ @x. (/{t}(2) /\\ {r}(x,{k}) -> /{t}(2))"
        else:             # a machine choice behind the recurrence
            body = f"$ #x. ({r}(x) \\/ {r}({k}))"
        lines.append(f"/{s} = {body}")
    m, h, leaf = names(), names(), names()
    lines += [f"/{m}(0) = q", f"/{m}(s(X)) = p /\\ !/{m}(X)",
              f"/{h}(0) = {leaf}", f"/{h}(s(X)) = /{h}(X) /\\ /{h}(X)"]
    rng.shuffle(lines)
    definitions = len(lines)
    lines.append(f"query /{query}")
    return "\n".join(lines) + "\n", definitions, m, h


# running queries as the CLI does ---------------------------------------

def play(kb_text, script_text, inputs=(), bounds=None):
    """`coli run`: load the KB, build the configuration, run the script."""
    cfg = coli.init_configuration(coli.load_kb(kb_text))
    env = coli.ScriptEnv(channel=coli.ListChannel(list(inputs)),
                         bounds=bounds or coli.Bounds())
    return coli.run_script(coli.parse_script(script_text), cfg, env)


def _expect(cond, message):
    if not cond:
        raise Mismatch(message)


def _num(term):
    _expect(isinstance(term, coli.Num), f"expected a numeral, got {term!r}")
    return term.value


def check_won(outcome, pred, args):
    _expect(outcome.won, f"lost: {outcome.reason}")
    result = outcome.result
    _expect(isinstance(result, coli.Atom) and result.pred == pred
            and tuple(_num(a) for a in result.args) == tuple(args),
            f"RESULT {coli.pretty(result)}, expected {pred}{tuple(args)}")


def check_fact_subst(outcome, n):
    """W(2i-1) = i-1 and W(2i) = (i-1)! for i = 1..n, and W(2n+1) = n!."""
    want = {}
    for i in range(1, n + 1):
        want[f"W{2 * i - 1}"] = i - 1
        want[f"W{2 * i}"] = math.factorial(i - 1)
    want[f"W{2 * n + 1}"] = math.factorial(n)
    got = {k: _num(v) for k, v in outcome.subst.bindings.items()}
    _expect(got == want, f"closing substitution {outcome.subst.render()}")


def in_degrees(graph):
    """In-degree of every node reachable from the root, counted here."""
    degrees = {graph.root: 0}
    stack, seen = [graph.root], set()
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        for child in graph.nodes[nid].children:
            degrees[child] = degrees.get(child, 0) + 1
            stack.append(child)
    return degrees


def at_stack_depth(depth, fn):
    """fn() called with exactly `depth` frames on the stack (or more, if
    the caller is already deeper)."""
    here, frame = 0, sys._getframe()
    while frame is not None:
        here, frame = here + 1, frame.f_back

    def descend(k):
        return fn() if k <= 0 else descend(k - 1)

    return descend(depth - here - 1)


def check_chain(graph, n):
    """/m(n): n `p` atoms, one `q`, no node shared."""
    degrees = in_degrees(graph)
    preds = [graph.nodes[nid].pred for nid in degrees
             if graph.nodes[nid].op == "atom"]
    _expect(preds.count("p") == n and preds.count("q") == 1
            and len(preds) == n + 1, f"/m({n}) atoms {len(preds)}")
    _expect(max(degrees.values()) <= 1, f"/m({n}) has a shared node")


def check_doubling(graph, n):
    """/h(n): n+1 nodes; every node but the root has in-degree 2."""
    degrees = in_degrees(graph)
    _expect(len(degrees) == n + 1, f"/h({n}) has {len(degrees)} nodes")
    _expect(degrees[graph.root] == 0
            and all(v == 2 for nid, v in degrees.items() if nid != graph.root),
            f"/h({n}) in-degrees {sorted(set(degrees.values()))}")


# workloads --------------------------------------------------------------

def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def prove_fact(seed, workdir, sizes):
    rng = random.Random(seed)
    names = Names(rng)
    c, d, query, pred = names(), names(), names(), names()
    s, iquery, ident = names(), names(), names()
    kb = _write(workdir, "fact.kb", fact_kb(c, d, query, pred))
    script = _write(workdir, "fact_short.coli", prove_script(query))
    ikb = _write(workdir, "ident.kb",
                 f"/{s} = $ @x. {ident}(x,x)\n/{iquery} = @y. #z. {ident}(y,z)\n"
                 f"query /{iquery}\n")
    iscript = _write(workdir, "ident.coli", prove_script())
    kb_text, script_text = _read(kb), _read(script)
    ikb_text, iscript_text = _read(ikb), _read(iscript)

    def fact_op(n):
        def run():
            outcome, cfg = play(kb_text, script_text, [n])
            check_won(outcome, pred, (n, math.factorial(n)))
            reps = sum(isinstance(m, coli.ReplicateMove) and m.path.dir == d
                       for m in cfg.trace)
            _expect(reps == n, f"strategy replicated /d {reps} times, not {n}")
        return Op(f"prove-fact({n})", run)

    def ident_op(v):
        def run():
            outcome, _cfg = play(ikb_text, iscript_text, [v])
            check_won(outcome, ident, (v, v))
        return Op(f"ident({v})", run)

    ops = [fact_op(n) for n in sizes.prove_ladder]
    ops += [ident_op(rng.randrange(10 ** 6)) for _ in range(sizes.ident_values)]
    return Workload("prove-fact", ops, f"prove-fact({max(sizes.prove_ladder)})",
                    [kb, ikb])


def script_fact(seed, workdir, sizes):
    rng = random.Random(seed)
    names = Names(rng)
    c, d, query, pred = names(), names(), names(), names()
    kb = _write(workdir, "fact.kb", fact_kb(c, d, query, pred))
    script = _write(workdir, "fact.coli", fact_script(d, query))
    kb_text, script_text = _read(kb), _read(script)

    def fact_op(n):
        def run():
            outcome, _cfg = play(kb_text, script_text, [n])
            check_won(outcome, pred, (n, math.factorial(n)))
            check_fact_subst(outcome, n)
        return Op(f"script-fact({n})", run)

    ops = [fact_op(n) for n in sizes.script_ladder]
    return Workload("script-fact", ops, f"script-fact({max(sizes.script_ladder)})",
                    [kb])


def search_q(seed, workdir, sizes):
    rng = random.Random(seed)
    names = Names(rng)
    q, p, r, a = names(), names(), names(), names()
    kb = _write(workdir, "q.kb", f"/{q} = $ #x. {p}(x) \\/ {r}({a})\nquery /{q}\n")
    free = _write(workdir, "q_free.coli", "algorithm unrestricted {\n  prove;\n}\n")
    restricted = _write(workdir, "q_restricted.coli",
                        f"algorithm restricted {{\n  choose(/{q}.1: write);\n"
                        f"  prove;\n}}\n")
    kb_text, free_text, restricted_text = _read(kb), _read(free), _read(restricted)
    steps: dict = {}

    def free_op(i, bound):
        def run():
            outcome, _cfg = play(kb_text, free_text,
                                 bounds=coli.Bounds(max_replicas=bound))
            _expect(not outcome.won and outcome.reason == "bounded",
                    f"max_replicas={bound}: {outcome.status} {outcome.reason}")
            steps[bound] = outcome.steps
            if i:  # the previous rung ran earlier in this round
                below = sizes.q_ladder[i - 1]
                _expect(outcome.steps >= steps[below],
                        f"search nodes fell from {steps[below]} to {outcome.steps}")
        return Op(f"q-free({bound})", run)

    def restricted_run():
        outcome, _cfg = play(kb_text, restricted_text)
        _expect(not outcome.won and outcome.reason == "exhausted",
                f"restricted: {outcome.status} {outcome.reason}")

    ops = [free_op(i, b) for i, b in enumerate(sizes.q_ladder)]
    ops.append(Op("q-restricted", restricted_run))
    return Workload("search-q", ops, f"q-free({max(sizes.q_ladder)})", [kb])


def large_kb_workload(seed, workdir, sizes):
    rng = random.Random(seed)
    names = Names(rng)
    fact = (names(), names(), names(), names())
    text, definitions, m, h = large_kb(rng, names, sizes, fact)
    kb = _write(workdir, "large.kb", text)
    script = _write(workdir, "fact.coli", fact_script(fact[1], fact[2]))
    deep_kb = _write(workdir, "rec_query.kb",
                     REC_KB + f"/query = /m({DEEP_PROVE_N})\nquery /query\n")
    rec_kb = _write(workdir, "rec.kb", REC_KB)
    kb_text, script_text = _read(kb), _read(script)
    deep_text, rec_text = _read(deep_kb), _read(rec_kb)
    n = sizes.large_fact_n

    def fact_run():
        table = coli.load_kb(kb_text)
        loaded = sum(len(dd.clauses) for dd in table.defs.values())
        _expect(loaded == definitions,
                f"loaded {loaded} definitions, generated {definitions}")
        cfg = coli.init_configuration(table)
        env = coli.ScriptEnv(channel=coli.ListChannel([n]))
        outcome, _cfg = coli.run_script(coli.parse_script(script_text), cfg, env)
        check_won(outcome, fact[3], (n, math.factorial(n)))
        check_fact_subst(outcome, n)

    def chain_run():
        table = coli.load_kb(kb_text)
        check_chain(coli.expand(table, coli.parse_dirref(f"/{m}({sizes.large_m})")),
                    sizes.large_m)

    def doubling_run():
        table = coli.load_kb(kb_text)
        check_doubling(
            coli.expand(table, coli.parse_dirref(f"/{h}({sizes.large_h})")),
            sizes.large_h)

    def deep_prove_run():
        # correct verdict: exhausted (no move exists and q is underivable)
        cfg = coli.init_configuration(coli.load_kb(deep_text))
        result = at_stack_depth(CALLER_DEPTH, lambda: coli.prove(cfg))
        _expect(not result.ok and result.reason == "exhausted",
                f"/m({DEEP_PROVE_N}): {result.reason or 'won'}")

    def deep_parse_run():
        # correct outcome: the expansion, or DepthLimitError
        table = coli.load_kb(rec_text)
        ref = "/m(" + "s(" * DEEP_PARSE_N + "0" + ")" * (DEEP_PARSE_N + 1)
        try:
            graph = coli.expand(table, coli.parse_dirref(ref))
        except coli.DepthLimitError:
            return
        check_chain(graph, DEEP_PARSE_N)

    ops = [Op(f"fact-on-store({n})", fact_run),
           Op(f"expand-m({sizes.large_m})", chain_run),
           Op(f"expand-h({sizes.large_h})", doubling_run),
           Op(f"prove-m({DEEP_PROVE_N})", deep_prove_run, known_fault=RecursionError),
           Op(f"parse-s^{DEEP_PARSE_N}", deep_parse_run, known_fault=RecursionError)]
    return Workload("large-kb", ops, ops[0].name, [kb, deep_kb])


WORKLOADS = {"prove-fact": prove_fact, "script-fact": script_fact,
             "search-q": search_q, "large-kb": large_kb_workload}
