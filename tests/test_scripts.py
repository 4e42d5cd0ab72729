"""Script parsing and interpretation: the factorial scripts, loops,
conditionals, channels, and determinism."""

import operator

import pytest

from coli.errors import ChannelError, ConfigError, ParseError
from coli.formulas import pretty
from coli.scripts import (ChooseStmt, ExecuteStmt, ForStmt, IfStmt, ListChannel,
                          ProveStmt, ReadStmt, ScriptEnv, WriteStmt,
                          parse_script, run_script)
from coli.configuration import Path, init_configuration
from coli.directories import load_kb

from conftest import data_text, factorial, run_game


def test_parse_fact_script():
    script = parse_script(data_text("fact.coli"))
    assert script.name == "fact"
    read, loop, write, execute = script.body
    assert read == ReadStmt(Path("query"), "n")
    assert isinstance(loop, ForStmt)
    assert loop.var == "i" and loop.lo == 1 and loop.hi == "n"
    assert loop.body == (WriteStmt(Path("d", ("i",))),
                         WriteStmt(Path("d", ("i",))))
    assert write == WriteStmt(Path("query"))
    assert isinstance(execute, ExecuteStmt)


def test_parse_shortened_script():
    script = parse_script("algorithm t { prove; execute; }")
    assert script.body == (ProveStmt(), ExecuteStmt())


def test_parse_empty_body():
    assert parse_script("algorithm t { }").body == ()


def test_parse_choose_and_schoose():
    script = parse_script(
        "algorithm t { choose(/q.1: write); schoose(/a: write, /b: read, replicate); }")
    first, second = script.body
    assert first == ChooseStmt(((Path("q", (1,)), ("write",)),), False)
    assert second.prioritized
    assert second.restrictions == ((Path("a"), ("write",)),
                                   (Path("b"), ("read", "replicate")))


def test_parse_if_else_and_comments():
    script = parse_script("""
algorithm t {            % top comment
  /q.read(n);
  if n <= 2+1 { /q.write; } else { prove; }
}
""")
    read, branch = script.body
    assert isinstance(branch, IfStmt)
    assert branch.cond == ("<=", "n", ("+", 2, 1))
    assert branch.then == (WriteStmt(Path("q")),)
    assert branch.orelse == (ProveStmt(),)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_script("algorithm t { /q.frob; }")
    with pytest.raises(ParseError):
        parse_script("algorithm t { choose(/q.1: zap); }")
    with pytest.raises(ParseError):
        parse_script("algorithm { prove; }")


def test_full_fact_run():
    outcome, cfg, _ = run_game("fact.kb", "fact.coli", [3])
    assert outcome.won
    assert pretty(outcome.result) == "fact(3,6)"


def test_zero_iterations_loop():
    outcome, _, _ = run_game("fact.kb", "fact.coli", [0])
    assert outcome.won
    assert pretty(outcome.result) == "fact(0,1)"


def test_script_equivalence_result_and_bindings():
    for n in range(7):
        full, _, _ = run_game("fact.kb", "fact.coli", [n])
        short, _, _ = run_game("fact.kb", "fact_short.coli", [n])
        assert full.won and short.won
        assert pretty(full.result) == pretty(short.result) == \
            f"fact({n},{factorial(n)})"
        assert full.subst.bindings == short.subst.bindings


def test_won_prove_reports_its_steps():
    outcome, _, _ = run_game("fact.kb", "fact_short.coli", [4])
    assert outcome.won
    assert outcome.steps == 6


def test_restricted_q_script_loses_exhausted():
    outcome, _, _ = run_game("q.kb", "q_restricted.coli", [])
    assert not outcome.won
    assert outcome.reason == "exhausted"


def test_channel_exhausted():
    with pytest.raises(ChannelError):
        run_game("fact.kb", "fact.coli", [])


def test_channel_exhausted_at_strategy_branch():
    # the strategy's environment branch also draws from the channel
    with pytest.raises(ChannelError):
        run_game("ident.kb", "ident.coli", [])


def test_script_without_execute_never_wins():
    table = load_kb("/query = p\n/p0 = p\nquery /query\n")
    cfg = init_configuration(table)
    script = parse_script("algorithm t { }")
    outcome, _ = run_script(script, cfg, ScriptEnv(channel=ListChannel([])))
    assert not outcome.won
    # the same configuration closes fine through execute
    script = parse_script("algorithm t { execute; }")
    outcome, _ = run_script(script, cfg, ScriptEnv(channel=ListChannel([])))
    assert outcome.won


def test_execute_without_prove_closes_directly():
    outcome, _, _ = run_game("fact.kb", "fact.coli", [2])
    assert outcome.won  # the Fact script has no prove statement at all


def test_deterministic_traces():
    _, _, first = run_game("fact.kb", "fact_short.coli", [4], trace=True)
    _, _, second = run_game("fact.kb", "fact_short.coli", [4], trace=True)
    assert first == second


def test_env_branch_via_script_channel():
    for n in (0, 3, 6):
        outcome, _, _ = run_game("ident.kb", "ident.coli", [n])
        assert outcome.won
        assert pretty(outcome.result) == f"id({n},{n})"


def test_prove_continues_partially_driven_game():
    # manual moves first, search for the rest
    table = load_kb(data_text("fact.kb"))
    script = parse_script("""
algorithm mixed {
  /query.read(n);
  /d.1.write;
  /d.1.write;
  prove;
  execute;
}
""")
    cfg = init_configuration(table)
    outcome, final = run_script(script, cfg, ScriptEnv(channel=ListChannel([2])))
    assert outcome.won
    assert pretty(outcome.result) == "fact(2,2)"
    assert [str(m.path) for m in final.trace] == \
        ["/query", "/d", "/d.1", "/d.1", "/d", "/d.2", "/d.2", "/query"]


def test_schoose_in_script_orders_search():
    table = load_kb("/k = q(c)\n/query = #x. p(x) \\/ #y. q(y)\nquery /query\n")
    script = parse_script("""
algorithm t {
  schoose(/query.2: write, /query.1: write);
  prove;
  execute;
}
""")
    cfg = init_configuration(table)
    outcome, final = run_script(script, cfg, ScriptEnv(channel=ListChannel([])))
    assert outcome.won
    # the prioritized location is written first
    assert str(final.trace[0].path) == "/query.2"


def test_undefined_script_variable():
    table = load_kb(data_text("fact.kb"))
    cfg = init_configuration(table)
    script = parse_script("algorithm t { /d.i.write; }")
    with pytest.raises(ConfigError):
        run_script(script, cfg, ScriptEnv(channel=ListChannel([])))


def test_missing_child_names_the_node_path():
    # the message names the node that lacks the child, not the whole path
    cfg = init_configuration(load_kb(data_text("fact.kb")))
    script = parse_script("algorithm t { /query.read(n); /d.n.n.write; }")
    with pytest.raises(ConfigError) as err:
        run_script(script, cfg, ScriptEnv(channel=ListChannel([3])))
    assert str(err.value) == "no child 3 under /d.3 (node has 1)"


def test_loop_with_expression_bounds():
    table = load_kb(data_text("fact.kb"))
    cfg = init_configuration(table)
    script = parse_script("""
algorithm t {
  /query.read(n);
  for i = 1 to n*1+0 {
    /d.i.write;
    /d.i.write;
  }
  /query.write;
  execute;
}
""")
    outcome, _ = run_script(script, cfg, ScriptEnv(channel=ListChannel([3])))
    assert outcome.won and pretty(outcome.result) == "fact(3,6)"


IDENT_KB = "/s = $ @x. id(x,x)\n/query = @y. #z. id(y,z)\nquery /query\n"


@pytest.mark.parametrize("op, holds", [
    ("=", operator.eq), ("<", operator.lt), ("<=", operator.le),
    (">", operator.gt), (">=", operator.ge)])
def test_if_else_runs_the_branch_its_condition_picks(op, holds):
    # the then branch plays the game to a win (read, replicate and two
    # writes), the else branch loses it with one write fewer, so each run's
    # outcome and trace show which branch ran
    cfg = init_configuration(load_kb(IDENT_KB))
    script = parse_script(f"""
algorithm t {{
  /query.read(n);
  if n {op} 1+2 {{ /s.1.write; /query.write; execute; }}
  else {{ /s.1.write; execute; }}
}}
""")
    taken = set()
    for value in range(7):
        lines = []
        env = ScriptEnv(channel=ListChannel([value]), trace_sink=lines.append)
        outcome, _ = run_script(script, cfg, env)
        taken.add(holds(value, 3))
        assert outcome.won == holds(value, 3), (op, value)
        assert len(lines) == (4 if holds(value, 3) else 3), (op, value)
        if outcome.won:
            assert pretty(outcome.result) == f"id({value},{value})"
        else:
            assert outcome.reason.startswith("closure: "), (op, value)
    assert taken == {True, False}


def test_if_without_else_falls_through():
    cfg = init_configuration(load_kb(IDENT_KB))
    script = parse_script("""
algorithm t {
  /query.read(n);
  if n > 3 { execute; }
  /s.1.write;
  /query.write;
  execute;
}
""")
    for value, won in ((2, True), (4, False)):
        env = ScriptEnv(channel=ListChannel([value]))
        outcome, _ = run_script(script, cfg, env)
        assert outcome.won == won, value
