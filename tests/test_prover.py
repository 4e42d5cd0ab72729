"""Strategy search: the factorial strategy, restriction semantics, bounds,
determinism, and soundness of returned strategies."""

import random
from collections import Counter

import pytest

from coli import configuration, prover
from coli.configuration import (Path, ReplicateMove, WriteMove, apply_read,
                                apply_write, init_configuration, legal_moves,
                                replicate)
from coli.directories import load_kb
from coli.errors import ConfigError
from coli.prover import (Bounds, EnvBranch, Leaf, Restriction, Step, prove,
                         render_strategy, strategy_moves, term_universe,
                         validate_restrictions)
from coli.scripts import ListChannel, ScriptEnv, execute_strategy
from coli.solver import close_elementary
from coli.formulas import pretty
from coli.terms import Const, Num

from closure_reference import checked_close
from conftest import data_text


def _fact_after_read(n):
    table = load_kb(data_text("fact.kb"))
    cfg = init_configuration(table)
    return apply_read(cfg, Path("query"), n, "n")


def test_factorial_strategy_shape():
    cfg = _fact_after_read(3)
    result = prove(cfg)
    assert result.ok
    moves = strategy_moves(result.strategy)
    replicas = [m for m in moves if isinstance(m, ReplicateMove)]
    writes = [m for m in moves if isinstance(m, WriteMove)]
    assert [m.index for m in replicas] == [1, 2, 3]
    assert len(writes) == 7
    assert str(writes[-1].path) == "/query"
    # executing the strategy wins with the factorial value
    out, final = execute_strategy(result.strategy, cfg,
                                  ScriptEnv(channel=ListChannel([])))
    assert out.won and pretty(out.result) == "fact(3,6)"


def test_prove_records_only_legal_moves():
    cfg = _fact_after_read(2)
    result = prove(cfg)
    assert result.ok
    current = cfg
    for move in strategy_moves(result.strategy):
        options = {(o.kind, str(o.path)) for o in legal_moves(current)}
        if isinstance(move, WriteMove):
            assert ("write", str(move.path)) in options
            current = apply_write(current, move.path, term=move.term)
        else:
            assert ("replicate", str(move.path)) in options
            current = replicate(current, move.path, move.index)


def test_restricted_q_exhausts():
    table = load_kb(data_text("q.kb"))
    cfg = init_configuration(table)
    restriction = Restriction(Path("q", (1,)), ("write",))
    result = prove(cfg, [restriction])
    assert not result.ok
    assert result.reason == "exhausted"


def test_unrestricted_q_is_bounded():
    table = load_kb(data_text("q.kb"))
    cfg = init_configuration(table)
    lines = []
    result = prove(cfg, (), Bounds(max_replicas=8), lines.append)
    assert not result.ok
    assert result.reason == "bounded"
    assert sum(1 for l in lines if "replicate" in l) >= 8


def test_replica_limit_bounds_the_search(monkeypatch):
    # fact(5) needs five replicas of /d: a lower limit cuts the search,
    # which is a bound like max_depth, not an error
    table = load_kb(data_text("fact.kb"))
    default = configuration.REPLICA_LIMIT

    def proved(limit):
        monkeypatch.setattr(configuration, "REPLICA_LIMIT", limit)
        cfg = init_configuration(table)
        return prove(apply_read(cfg, Path("query"), 5, "n"))

    cut = proved(2)
    assert (cut.ok, cut.reason) == (False, "bounded")
    won = proved(default)
    for limit in (5, 6):
        result = proved(limit)
        assert result.ok
        assert render_strategy(result.strategy) == render_strategy(won.strategy)


def test_restriction_turns_bounded_into_exhausted():
    # masking replication shrinks the search space monotonically
    table = load_kb(data_text("q.kb"))
    cfg = init_configuration(table)
    free = prove(cfg, (), Bounds(max_replicas=6))
    masked = prove(cfg, [Restriction(Path("q", (1,)), ("write",))],
                   Bounds(max_replicas=6))
    assert free.reason == "bounded"
    assert masked.reason == "exhausted"
    assert masked.steps <= free.steps


def test_prioritized_restrictions_order_moves():
    # two machine writes on the output; schoose flips which one goes first
    table = load_kb("/k = q(c)\n/query = #x. p(x) \\/ #y. q(y)\nquery /query\n")
    cfg = init_configuration(table)

    plain = prove(cfg)
    assert plain.ok
    assert strategy_moves(plain.strategy)[0].path == Path("query", (1,))

    flipped = prove(cfg, [Restriction(Path("query", (2,)), ("write",), True),
                          Restriction(Path("query", (1,)), ("write",), True)])
    assert flipped.ok
    assert strategy_moves(flipped.strategy)[0].path == Path("query", (2,))


def test_restriction_validation_errors():
    table = load_kb(data_text("q.kb"))
    cfg = init_configuration(table)
    with pytest.raises(ConfigError):
        validate_restrictions(cfg, [Restriction(Path("q", (9,)), ("write",))])
    with pytest.raises(ConfigError):
        validate_restrictions(cfg, [Restriction(Path("q", (1,)), ("zap",))])


def test_unread_query_is_not_provable():
    # with the environment's @y still pending the search must give up on a
    # bound instead of guessing: winning for every y needs induction
    table = load_kb(data_text("fact.kb"))
    cfg = init_configuration(table)
    result = prove(cfg, (), Bounds(max_replicas=4))
    assert not result.ok
    assert result.reason == "bounded"
    # and stays tractable at the default bounds
    result = prove(cfg)
    assert not result.ok and result.reason == "bounded"


def test_env_branch_strategy():
    table = load_kb(data_text("ident.kb"))
    cfg = init_configuration(table)
    result = prove(cfg)
    assert result.ok
    assert isinstance(result.strategy, EnvBranch)
    for value in range(7):
        out, _ = execute_strategy(result.strategy, cfg,
                                  ScriptEnv(channel=ListChannel([value])))
        assert out.won
        assert pretty(out.result) == f"id({value},{value})"


def test_determinism():
    cfg = _fact_after_read(4)
    first = prove(cfg)
    second = prove(cfg)
    assert first.strategy == second.strategy
    assert first.steps == second.steps


def test_collapse_write_strategy_at_service_root():
    # the whole output is a recurrence: a write commits it to one copy
    table = load_kb("/f = p(5)\n/q2 = $ #x. p(x)\nquery /q2\n")
    cfg = init_configuration(table)
    result = prove(cfg)
    assert result.ok
    moves = strategy_moves(result.strategy)
    assert len(moves) == 1 and str(moves[0].path) == "/q2"
    out, _ = execute_strategy(result.strategy, cfg,
                              ScriptEnv(channel=ListChannel([])))
    assert out.won and pretty(out.result) == "p(5)"


def test_explicit_term_universe_bound():
    # an explicit universe replaces the derived one at committing writes
    table = load_kb("/q2 = $ #x. p(x)\nquery /q2\n")
    cfg = init_configuration(table)
    wide = prove(cfg, [Restriction(Path("q2"), ("write",))],
                 Bounds(term_universe=(Num(0), Num(1), Num(2))))
    narrow = prove(cfg, [Restriction(Path("q2"), ("write",))],
                   Bounds(term_universe=()))
    assert not wide.ok and not narrow.ok
    assert wide.reason == narrow.reason == "exhausted"
    assert narrow.steps < wide.steps


def test_term_universe_contents():
    cfg = _fact_after_read(3)
    universe = term_universe(cfg)
    assert universe[0] == Num(0)
    assert Num(3) in universe and Num(1) in universe
    table = load_kb(data_text("q.kb"))
    assert Const("a") in term_universe(init_configuration(table))


def test_render_strategy_mentions_moves():
    cfg = _fact_after_read(1)
    result = prove(cfg)
    text = render_strategy(result.strategy)
    assert "write /query" in text
    assert text.strip().endswith("close")


@pytest.mark.parametrize("n,closures,steps", [(4, 10, 29), (8, 18, 89),
                                              (12, 26, 181)])
def test_closure_runs_once_per_position(monkeypatch, n, closures, steps):
    # iterative deepening revisits positions, but each distinct canonical
    # position is closed at most once per prove call
    keys = []

    def counting(cfg):
        keys.append(prover._canonical_key(cfg))
        return close_elementary(cfg)

    monkeypatch.setattr(prover, "close_elementary", counting)
    result = prove(_fact_after_read(n))
    assert result.ok and result.steps == steps
    assert len(keys) == len(set(keys)) == closures
    replicas = [m for m in strategy_moves(result.strategy)
                if isinstance(m, ReplicateMove)]
    assert len(replicas) == n
    assert {str(m.path) for m in replicas} == {"/d"}


@pytest.mark.parametrize("replicas,steps", [(4, 24), (8, 44), (16, 84)])
def test_closure_cache_keeps_search_nodes(replicas, steps):
    table = load_kb(data_text("q.kb"))
    result = prove(init_configuration(table), (), Bounds(max_replicas=replicas))
    assert result.reason == "bounded"
    assert result.steps == steps


def test_search_walks_only_the_regions_a_move_touched(monkeypatch):
    # a move changes one service and the replicas on its path, and only
    # those regions are walked again; without the region cache every
    # search node would walk all of its up to 17 regions
    walks = []
    walk_region = configuration._walk_region

    def counting(cfg, root, *rest):
        walks.append(root)
        return walk_region(cfg, root, *rest)

    monkeypatch.setattr(configuration, "_walk_region", counting)
    table = load_kb(data_text("q.kb"))
    result = prove(init_configuration(table), (), Bounds(max_replicas=16))
    assert result.reason == "bounded" and result.steps == 84
    assert len(walks) <= 2 * result.steps


# --- the dead-position prune against the search without it -------------

def _random_atom(rng, scope):
    pred, arity = rng.choice([("p", 1), ("q", 1), ("r", 2)])
    pool = ["a", "0"] + list(scope) * 2
    return f"{pred}({','.join(rng.choice(pool) for _ in range(arity))})"


def _random_input(rng):
    """Facts, a replicable rule or fact, a recurrence nested in one, or a
    disjunction or negation, which closure never decomposes."""
    atom = _random_atom
    return rng.choice([
        lambda: " /\\ ".join(atom(rng, ()) for _ in range(rng.randint(1, 3))),
        lambda: f"$ @x. ({atom(rng, 'x')} -> {atom(rng, 'x')})",
        lambda: f"$ ({atom(rng, ())} -> {atom(rng, ())})",
        lambda: f"$ @x. {atom(rng, 'x')}",
        lambda: f"$ @x. $ ({atom(rng, 'x')} -> {atom(rng, 'x')})",
        lambda: f"$ ({atom(rng, ())} /\\ $ @x. {atom(rng, 'x')})",
        lambda: f"$ @x. ({atom(rng, 'x')} \\/ ~{atom(rng, 'x')})",
        lambda: f"{atom(rng, ())} \\/ {atom(rng, ())}",
    ])()


def _random_output(rng, depth=0):
    """Machine and environment quantifiers, recurrences (some nested),
    disjunctions and implications."""
    atom = _random_atom
    choices = [
        lambda: atom(rng, ()),
        lambda: f"#w. {atom(rng, 'w')}",
        lambda: f"@y. #w. {atom(rng, 'yw')}",
        lambda: f"$ #w. {atom(rng, 'w')}",
        lambda: f"$ $ #w. {atom(rng, 'w')}",
    ]
    if depth == 0:
        choices += [
            lambda: f"({_random_output(rng, 1)} \\/ {_random_output(rng, 1)})",
            lambda: f"({atom(rng, ())} -> {_random_output(rng, 1)})",
            lambda: f"{_random_output(rng, 1)} /\\ {_random_output(rng, 1)}",
        ]
    return rng.choice(choices)()


def _random_game(rng) -> str:
    inputs = "".join(f"/i{k} = {_random_input(rng)}\n"
                     for k in range(rng.randint(1, 3)))
    return inputs + f"/query = {_random_output(rng)}\nquery /query\n"


def _random_restrictions(rng, cfg):
    """One to four restrictions on paths of the first moves, or into the
    replicas those create, all prioritized or none; none if no move is
    legal."""
    paths = {o.path for o in legal_moves(cfg)}
    for _level in range(2):
        paths |= {Path(p.dir, p.segments + (i,)) for p in paths for i in (1, 2)}
    pool = sorted(paths, key=str)
    if not pool:
        return []
    prioritized = rng.random() < 0.5
    rules = [("write",), ("replicate",), ("write", "replicate")]
    return [Restriction(path, rng.choice(rules), prioritized)
            for path in rng.sample(pool, rng.randint(1, min(4, len(pool))))]


ORACLE_UNIVERSE = (Num(0), Const("a"))
ORACLE_BOUNDS = [Bounds(d, r, ORACLE_UNIVERSE)
                 for d, r in ((8, 3), (5, 4), (4, 3), (3, 2), (2, 4))]


def test_dead_position_prune_keeps_verdicts_strategies_and_wins(monkeypatch):
    # the prune against the same search with `_dead` switched off, on small
    # random games at every bound pair, with and without restrictions: it
    # may only drop search nodes, and won strategies beat the environment's
    # values 0..6.  The prune's choice between the budget and the depth
    # flag shows in a verdict only where max_depth is below max_replicas
    # (2/4 here); a prune of dead positions that offer no replicate would
    # show only under restrictions or beside an input dead from the start
    rng = random.Random(20)
    verdicts = Counter()
    pruned = 0
    for trial in range(90):
        kb = _random_game(rng)
        cfg = init_configuration(load_kb(kb))
        restrictions = _random_restrictions(rng, cfg) if trial % 2 else []
        for bounds in ORACLE_BOUNDS:
            fast = prove(cfg, restrictions, bounds)
            with monkeypatch.context() as patch:
                patch.setattr(prover, "_dead", lambda position: False)
                full = prove(cfg, restrictions, bounds)
            case = (kb, restrictions, bounds)
            assert (fast.ok, fast.reason) == (full.ok, full.reason), case
            assert fast.steps <= full.steps, case
            pruned += fast.steps < full.steps
            verdicts[fast.reason or "won"] += 1
            if not fast.ok:
                continue
            assert render_strategy(fast.strategy) \
                == render_strategy(full.strategy), case
            for value in range(7):
                env = ScriptEnv(channel=ListChannel([value] * 4), bounds=bounds)
                outcome, _ = execute_strategy(fast.strategy, cfg, env)
                assert outcome.won, (case, value)
    # the prune fired, and every verdict occurs
    assert pruned >= 100 and min(verdicts.values()) >= 30, (pruned, verdicts)


def test_closures_in_random_games_match_the_reference(monkeypatch):
    # every closure that proof search attempts on small random games, each
    # checked against the reference search
    rng = random.Random(21)
    outcomes = Counter()

    def close(cfg):
        result = checked_close(cfg)
        outcomes[result.ok, result.reason.split(":")[0]] += 1
        return result

    monkeypatch.setattr(prover, "close_elementary", close)
    for _trial in range(150):
        cfg = init_configuration(load_kb(_random_game(rng)))
        prove(cfg, (), Bounds(6, 3, ORACLE_UNIVERSE))
    # the searches reach wins and derivations that fail, not only shapes
    # that closure rejects before it searches
    assert outcomes[True, ""] >= 15, outcomes
    assert outcomes[False, "no derivation covers the output"] >= 200, outcomes
