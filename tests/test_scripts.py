"""Script parsing and interpretation: the factorial scripts, loops,
conditionals, channels, and determinism."""

import operator
import random
from collections import Counter

import pytest

from coli import scripts
from coli.errors import ChannelError, ConfigError, ParseError
from coli.formulas import pretty
from coli.prover import Bounds, prove, render_strategy
from coli.scripts import (ChooseStmt, ExecuteStmt, ForStmt, IfStmt, ListChannel,
                          ProveStmt, ReadStmt, ScriptEnv, WriteStmt,
                          parse_script, run_script)
from coli.configuration import Path, init_configuration
from coli.directories import load_kb
from coli.terms import App, Const, Num

from conftest import data_text, factorial, run_game
from test_prover import _random_game


def test_parse_fact_script():
    script = parse_script(data_text("fact.coli"))
    assert script.name == "fact"
    read, loop, write, execute = script.body
    assert read == ReadStmt(Path("query"), "n")
    assert isinstance(loop, ForStmt)
    assert loop.var == "i" and loop.lo == Num(1) and loop.hi == Const("n")
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
    assert branch.cond == ("<=", Const("n"), App("+", (Num(2), Num(1))))
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


def test_list_channel_takes_naturals_as_ints_or_decimal_text():
    # an int of more than 4,300 digits, which str() refuses, is still a natural
    huge = 10 ** 5000
    assert ListChannel([3, " 4 ", huge]).values == [3, 4, huge]
    for bad in (-1, "+3", "1_0", "-0", 2.0):
        with pytest.raises(ChannelError, match="must be naturals"):
            ListChannel([bad])


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


def test_a_reused_env_starts_each_run_afresh():
    # the restrictions, variables and pending prove of one run do not reach
    # the next: q_free after q_restricted is bounded, as on its own
    cfg = init_configuration(load_kb(data_text("q.kb")))
    env = ScriptEnv(ListChannel([]))
    restricted, _ = run_script(parse_script(data_text("q_restricted.coli")), cfg, env)
    free, _ = run_script(parse_script(data_text("q_free.coli")), cfg, env)
    assert (restricted.reason, free.reason) == ("exhausted", "bounded")
    assert env.restrictions == [] and env.variables == {} and env.pending is None


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


READ_KB = "/s = $ @x. id(x,x)\n/query = @a. @b. @c. #z. id(c,z)\nquery /query\n"
COMPARE = {"=": operator.eq, "<": operator.lt, "<=": operator.le,
           ">": operator.gt, ">=": operator.ge}


def _random_expr(rng, depth=3):
    """A numeral, one of the read variables a, b and c, or (op, operands...)
    for "+", "*" and "s"."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(["a", "b", "c", str(rng.randint(0, 9))])
    if roll < 0.45:
        return ("s", _random_expr(rng, depth - 1))
    return (rng.choice("+*"), _random_expr(rng, depth - 1),
            _random_expr(rng, depth - 1))


def _render(expr, rng):
    """The expression's text and precedence (1 sum, 2 product, 3 atom): a
    sum under a product is parenthesized, and any operand at random."""
    if isinstance(expr, str):
        return expr, 3
    if expr[0] == "s":
        return f"s({_render(expr[1], rng)[0]})", 3
    mine = 1 if expr[0] == "+" else 2
    parts = []
    for operand in expr[1:]:
        text, prec = _render(operand, rng)
        parts.append(f"({text})" if prec < mine or rng.random() < 0.15 else text)
    return expr[0].join(parts), mine


def _value(expr, read):
    """The expression's value in Python's own arithmetic."""
    if isinstance(expr, str):
        return read[expr] if expr in read else int(expr)
    if expr[0] == "s":
        return _value(expr[1], read) + 1
    a, b = _value(expr[1], read), _value(expr[2], read)
    return a + b if expr[0] == "+" else a * b


def test_expressions_match_python_arithmetic():
    # seeded random expressions as for bounds and if operands.  The body
    # wins the game, so a loop's outcome shows whether it ran: from E to its
    # value and from the value to E both run, from the value + 1 to E not;
    # an if against a second expression wins as Python's comparison holds
    rng = random.Random(24)
    cfg = init_configuration(load_kb(READ_KB))
    win = "/s.1.write; /query.write; execute;"
    seen = set()
    for _ in range(300):
        read = {name: rng.randint(0, 6) for name in "abc"}
        lhs, rhs = _random_expr(rng), _random_expr(rng)
        text, other = _render(lhs, rng)[0], _render(rhs, rng)[0]
        value = _value(lhs, read)
        op = rng.choice(list(COMPARE))
        holds = COMPARE[op](value, _value(rhs, read))
        seen.add((op, holds))
        for body, wins in ((f"for i = {text} to {value} {{ {win} }}", True),
                           (f"for i = {value} to {text} {{ {win} }}", True),
                           (f"for i = {value + 1} to {text} {{ {win} }}", False),
                           (f"if {text} {op} {other} {{ {win} }}", holds)):
            script = parse_script("algorithm t { /query.read(a); /query.read(b); "
                                  f"/query.read(c); {body} }}")
            channel = ListChannel([read["a"], read["b"], read["c"]])
            outcome, _ = run_script(script, cfg, ScriptEnv(channel))
            assert outcome.won == wins, (body, read)
    assert seen == {(op, holds) for op in COMPARE for holds in (True, False)}


# --- execute after prove: the won leaf against a replay -------------------

PROVE_EXECUTE = "algorithm a {\n  prove;\n  execute;\n}\n"


@pytest.fixture
def both_paths(monkeypatch):
    """play(cfg, script, inputs, bounds) runs the script as it is and with
    the won leaf's reuse switched off, so that execute walks the strategy.
    It returns each run's outcome fields, emitted lines and final trace,
    and whether the first run reused the leaf."""
    walked = []
    walk = scripts.execute_strategy

    def counting(*args):
        walked.append(args)
        return walk(*args)

    monkeypatch.setattr(scripts, "execute_strategy", counting)

    def run(cfg, text, inputs, bounds):
        lines: list = []
        env = ScriptEnv(ListChannel(inputs), bounds, lines.append)
        outcome, final = run_script(parse_script(text), cfg, env)
        return (outcome.status, outcome.reason, outcome.steps,
                None if outcome.subst is None else outcome.subst.render(),
                None if outcome.result is None else pretty(outcome.result),
                lines, final.trace)

    def play(cfg, text, inputs, bounds=Bounds()):
        walked.clear()
        reused = run(cfg, text, inputs, bounds)
        took_reuse = not walked
        with monkeypatch.context() as patch:
            patch.setattr(scripts, "_branch_free", lambda strategy: False)
            replayed = run(cfg, text, inputs, bounds)
        return reused, replayed, took_reuse

    return play


def test_execute_reuses_the_won_leaf_that_a_replay_rebuilds(both_paths):
    # fact after each read: execute takes the leaf, and its outcome, MOVE
    # lines and final trace are those of walking the strategy
    fact = init_configuration(load_kb(data_text("fact.kb")))
    for n in range(13):
        reused, replayed, took_reuse = both_paths(
            fact, data_text("fact_short.coli"), [n])
        assert took_reuse and reused == replayed, n
        assert reused[:2] == ("won", "") and reused[4] == f"fact({n},{factorial(n)})"


def test_execute_reuses_the_leaf_only_of_a_branch_free_strategy(both_paths):
    # seeded won random games: a strategy without an environment branch
    # reuses its leaf, one with a branch is walked, and both give what the
    # walk gives
    rng = random.Random(25)
    paths = Counter()
    for _ in range(400):
        cfg = init_configuration(load_kb(_random_game(rng)))
        bounds = Bounds(6, 3)
        reused, replayed, took_reuse = both_paths(cfg, PROVE_EXECUTE,
                                                  [rng.randrange(7)] * 4, bounds)
        assert reused == replayed
        proved = prove(cfg, (), bounds)
        if proved.ok:
            assert took_reuse == ("branch read" not in render_strategy(proved.strategy))
            paths[took_reuse, reused[0]] += 1
    assert paths[True, "won"] >= 30 and paths[False, "won"] >= 10, paths


def test_execute_walks_a_strategy_with_a_branch(both_paths):
    # ident's prove comes before the environment's read, so its strategy
    # branches on the value
    ident = init_configuration(load_kb(data_text("ident.kb")))
    reused, replayed, took_reuse = both_paths(ident, data_text("ident.coli"), [5])
    assert not took_reuse and reused == replayed
    assert reused[0] == "won" and reused[4] == "id(5,5)"


def test_execute_walks_a_strategy_after_a_move_since_prove(both_paths):
    # the read between prove and execute changes the configuration, so the
    # leaf that prove reached is not the one execute plays to
    kb = ("/c = p(0)\n/d = $ @x. (p(x) -> p(s(x)))\n/e = $ #y. r(y)\n"
          "/query = p(s(0))\nquery /query\n")
    script = "algorithm a {\n  prove;\n  /e.1.read(v);\n  execute;\n}\n"
    cfg = init_configuration(load_kb(kb))
    reused, replayed, took_reuse = both_paths(cfg, script, [4])
    assert not took_reuse and reused == replayed
    assert reused[0] == "won" and reused[4] == "p(1)"
    assert [str(m.path) for m in reused[6]] == ["/e", "/e.1", "/d", "/d.1"]
