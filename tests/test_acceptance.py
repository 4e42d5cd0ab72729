"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines."""

import random
import time

from coli.cli import main
from coli.configuration import init_configuration, replay
from coli.directories import expand, load_kb
from coli.formulas import pretty
from coli.parser import parse_dirref
from coli.prover import Bounds, prove
from coli.scripts import ListChannel, ScriptEnv, execute_strategy, parse_script, run_script
from coli.solver import unify

from conftest import data_path, data_text, factorial, graph_depth, snapshot
from test_solver import _fuzz_term, oracle_unify
from test_solver import test_close_matches_exhaustive_oracle as closure_oracle_check


def run_cli(capsys, *argv):
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    return code, out, elapsed


def test_criterion_1_factorial_service(capsys):
    code, out, elapsed = run_cli(
        capsys, "run", "--kb", data_path("fact.kb"),
        "--script", data_path("fact.coli"), "--inputs", "3")
    assert code == 0
    assert out == "RESULT fact(3,6)\n"
    assert elapsed < 0.1
    print(f"criterion 1 (factorial service, {elapsed * 1000:.1f} ms): PASS")


def test_criterion_2_factorial_generalization(capsys):
    start = time.perf_counter()
    for n in range(9):
        code, out, _ = run_cli(
            capsys, "run", "--kb", data_path("fact.kb"),
            "--script", data_path("fact.coli"), "--inputs", str(n))
        assert code == 0
        assert out == f"RESULT fact({n},{factorial(n)})\n"
    total = time.perf_counter() - start
    assert total < 1.0
    print(f"criterion 2 (n=0..8 against brute-force factorial, "
          f"{total * 1000:.0f} ms): PASS")


def test_criterion_3_script_equivalence():
    table_text = data_text("fact.kb")
    for n in range(7):
        results = {}
        for name in ("fact.coli", "fact_short.coli"):
            table = load_kb(table_text)
            cfg = init_configuration(table)
            env = ScriptEnv(channel=ListChannel([n]))
            outcome, _ = run_script(parse_script(data_text(name)), cfg, env)
            assert outcome.won, (n, name, outcome.reason)
            results[name] = (f"RESULT {pretty(outcome.result)}",
                             dict(outcome.subst.bindings))
        full, short = results["fact.coli"], results["fact_short.coli"]
        assert full[0] == short[0], n
        assert full[1] == short[1], n
    print("criterion 3 (full/shortened equivalence, results and bindings): PASS")


def test_criterion_4_restriction_semantics(capsys):
    code, out, elapsed = run_cli(
        capsys, "run", "--kb", data_path("q.kb"),
        "--script", data_path("q_restricted.coli"))
    assert code == 1
    assert "reason=exhausted" in out
    assert elapsed < 0.1

    code, out, _ = run_cli(
        capsys, "run", "--kb", data_path("q.kb"),
        "--script", data_path("q_free.coli"),
        "--max-replicas", "32", "--trace")
    assert code == 3
    assert "reason=bounded" in out
    replicates = [l for l in out.splitlines() if l.startswith("MOVE replicate")]
    assert len(replicates) >= 32
    print(f"criterion 4 (restriction: exhausted vs bounded, "
          f"{len(replicates)} replicate moves): PASS")


def test_criterion_5_directory_expansion(capsys):
    code, out, _ = run_cli(capsys, "expand", "--kb", data_path("rec.kb"),
                           "/m(s(s(s(0))))")
    assert code == 0 and out == "p /\\ (p /\\ (p /\\ q))\n"

    code, out, _ = run_cli(capsys, "expand", "--kb", data_path("dirs.kb"),
                           "/n", "--graph")
    assert code == 0
    assert len([l for l in out.splitlines() if "p(a)" in l]) == 2

    code, out, _ = run_cli(capsys, "expand", "--kb", data_path("dirs.kb"),
                           "/o", "--graph")
    assert code == 0
    shared = [l for l in out.splitlines() if "p(a)" in l]
    assert len(shared) == 1 and "in=2" in shared[0]

    table = load_kb(data_text("rec.kb"))
    for k in range(17):
        chain = "s(" * k + "0" + ")" * k
        graph = expand(table, parse_dirref(f"/m({chain})"))
        assert graph_depth(graph) == k
    print("criterion 5 (expansion text, copy/shared graphs, depth 0..16): PASS")


def test_criterion_6_unification_suite():
    rng = random.Random(20250606)
    start = time.perf_counter()
    for _ in range(1000):
        t1 = _fuzz_term(rng, rng.randrange(4))
        t2 = _fuzz_term(rng, rng.randrange(4))
        mine = unify(t1, t2)
        theirs = oracle_unify(t1, t2)
        assert (mine is None) == (theirs is None), (t1, t2)
        if mine is not None:
            assert mine.apply(t1) == mine.apply(t2)
    # explicit occurs-check rejections
    from coli.terms import GVar, app
    assert unify(GVar("W1"), app("f", GVar("W1"))) is None
    assert unify(app("g", GVar("W2"), GVar("W2")),
                 app("g", GVar("W2"), app("f", GVar("W2")))) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 6 (1000 fuzzed pairs vs textbook oracle, "
          f"{elapsed:.2f} s): PASS")


def test_criterion_7_closure_oracle_equivalence():
    closure_oracle_check()
    print("criterion 7 (closure matches exhaustive firing-order oracle): PASS")


def test_criterion_8_soundness_and_replay():
    # strategies returned by prove win under execution for env inputs 0..6
    for kb, script in (("fact.kb", "fact_short.coli"), ("ident.kb", "ident.coli")):
        for n in range(7):
            table = load_kb(data_text(kb))
            cfg = init_configuration(table)
            env = ScriptEnv(channel=ListChannel([n]))
            outcome, final = run_script(parse_script(data_text(script)), cfg, env)
            assert outcome.won, (kb, n, outcome.reason)
            # the emitted trace replays to the same state, node ids included
            again = replay(load_kb(data_text(kb)), final.trace)
            assert snapshot(again) == snapshot(final), (kb, n)

    # byte-identical traces across two consecutive runs
    def traced(kb, script, inputs):
        table = load_kb(data_text(kb))
        cfg = init_configuration(table)
        lines: list[str] = []
        env = ScriptEnv(channel=ListChannel(inputs), trace_sink=lines.append,
                        bounds=Bounds(max_replicas=8))
        run_script(parse_script(data_text(script)), cfg, env)
        return lines

    for kb, script, inputs in (("fact.kb", "fact_short.coli", [5]),
                               ("q.kb", "q_free.coli", []),
                               ("ident.kb", "ident.coli", [2])):
        assert traced(kb, script, inputs) == traced(kb, script, inputs)
    print("criterion 8 (strategy soundness, replay, byte-identical traces): PASS")
