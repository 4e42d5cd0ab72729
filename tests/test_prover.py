"""Strategy search: the factorial strategy, restriction semantics, bounds,
determinism, and soundness of returned strategies."""

import gc
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


def test_mixed_restrictions_rank_by_their_first_prioritized_entry():
    # a move's rank is the index of the first prioritized restriction that
    # lists its (path, rule), whatever plain ones list it earlier; a move
    # that only plain restrictions list comes after every prioritized one.
    # All three writes are needed, so the strategy shows the search order
    kb = "/k = p(c) /\\ q(c) /\\ r(c)\n" \
         "/query = #x. p(x) \\/ #y. q(y) \\/ #z. r(z)\nquery /query\n"
    cfg = init_configuration(load_kb(kb))
    first, second, third = Path("query", (1, 1)), Path("query", (1, 2)), \
        Path("query", (2,))

    def order(restrictions):
        result = prove(cfg, restrictions)
        assert result.ok
        return [m.path for m in strategy_moves(result.strategy)]

    assert order([]) == [first, second, third]
    plain = [Restriction(p, ("write",)) for p in (third, second, first)]
    assert order(plain) == [first, second, third]
    mixed = [Restriction(third, ("write",)),
             Restriction(second, ("write", "replicate"), True),
             Restriction(first, ("write",)),
             Restriction(third, ("write",), True)]
    assert order(mixed) == [second, third, first]
    # a restriction set searches only what it lists, even when it lists nothing
    empty = prove(cfg, [Restriction(Path("query"), ())])
    assert (empty.ok, empty.reason, empty.steps) == (False, "exhausted", 1)


def test_restrictions_hold_back_forced_input_writes():
    # the search makes an input service's machine write without branching,
    # but only when no restriction is set or one lists it
    cfg = init_configuration(load_kb("/c = @x. p(x)\n/query = p(a)\n"
                                     "query /query\n"))
    for listed, won in (None, True), ("c", True), ("query", False):
        result = prove(cfg, [Restriction(Path(listed), ("write",))] if listed else [])
        assert (result.ok, result.reason) == (won, "" if won else "exhausted")


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


def test_prove_leaves_no_garbage_cycle():
    # the search is a closure that calls itself, a reference cycle; prove
    # breaks it, so the memos go when it returns, not at a later collection
    cfg = init_configuration(load_kb(data_text("q.kb")))
    gc.collect()
    gc.disable()
    try:
        assert prove(cfg, (), Bounds(max_replicas=4)).reason == "bounded"
        assert gc.collect() == 0
    finally:
        gc.enable()


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


@pytest.mark.parametrize("n,closures,steps", [(4, 6, 6), (8, 10, 10),
                                              (12, 14, 14)])
def test_closure_runs_once_per_position(monkeypatch, n, closures, steps):
    # iterative deepening revisits positions, but each distinct canonical
    # position is closed at most once per prove call; the deepening starts
    # at budget n here, so it walks the chain once
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


# --- the start budget against deepening from 0 ---------------------------

def _chain(k):
    return ("/c = p(0)\n/d = $ @x. (p(x) -> p(s(x)))\n"
            f"/query = p({'s(' * k}0{')' * k})\nquery /query\n")


HAND_GAMES = [
    data_text("ident.kb"), data_text("q.kb"), data_text("fact.kb"),
    # a body of two rules, or of a fact and a rule, is not followed
    "/c = p(a)\n/d = $ @x. ((p(x) -> q(x)) /\\ (q(x) -> r(x)))\n"
    "/query = r(a)\nquery /query\n",
    "/c = $ (p(a) /\\ (q(a) -> r(a)))\n/e = @x. (p(x) -> q(x))\n"
    "/query = #z. r(z)\nquery /query\n",
    # a body's fact feeds a free rule that feeds another body's rule
    "/c = $ p(a)\n/e = @x. (p(x) -> q(x))\n/f = $ @x. (q(x) -> r(x))\n"
    "/query = #z. r(z)\nquery /query\n",
    # two recurrences, each needed once, and an output that needs both
    "/c = p(0)\n/d = $ @x. (p(x) -> q(s(x)))\n/e = $ @x. (q(x) -> r(x))\n"
    "/query = #z. (r(z) /\\ p(0))\nquery /query\n",
    # p(a) is not the newest fact when /d first fires; s(3) is three away
    "/c = p(a) /\\ s(0)\n/d = $ @x. (p(x) -> q(x))\n/e = $ @x. (s(x) -> s(s(x)))\n"
    "/query = q(a) \\/ s(3)\nquery /query\n",
    # one replica of /e gives p(3) at once, three of /d derive it
    "/c = p(0)\n/d = $ @x. (p(x) -> p(s(x)))\n/e = $ p(3)\n"
    "/query = p(3)\nquery /query\n",
    # closure binds w through q(w), and then p(s(w)) matches p(3); matched
    # alone, p(s(w)) would fail and leave r(3), three replicas away
    "/c = q(2) /\\ p(3) /\\ r(0)\n/d = $ @x. (r(x) -> r(s(x)))\n"
    "/query = #w. (q(w) /\\ p(s(w)) \\/ r(3))\nquery /query\n",
    # the same through a free rule: r(x) binds x before p(s(x)) is matched
    "/c = r(0) /\\ p(1)\n/e = @x. ((r(x) -> t(x)) /\\ (p(s(x)) -> q(x)))\n"
    "/d = $ @x. (r(x) -> r(s(x)))\n/query = q(0) \\/ r(3)\nquery /query\n",
]


def _oracle_configurations(rng):
    """(case, configuration, max_replicas): the hand-made games, fact after
    each read and partly driven, then small random games."""
    for kb in HAND_GAMES:
        yield kb, init_configuration(load_kb(kb)), 8
    for k in (0, 1, 5, 17, 30):
        yield f"chain({k})", init_configuration(load_kb(_chain(k))), 32
    fact = load_kb(data_text("fact.kb"))
    for n in range(7):
        yield f"fact({n})", apply_read(init_configuration(fact), Path("query"),
                                       n, "n"), 32
    partial = apply_read(init_configuration(fact), Path("query"), 3, "n")
    for _ in range(2):
        partial = apply_write(partial, Path("d", (1,)))
    yield "fact(3) with /d.1 written", partial, 32
    for trial in range(80):
        kb = _random_game(rng) if trial % 2 else _random_derivation(rng)
        yield kb, init_configuration(load_kb(kb)), 3


def _random_derivation(rng):
    """Facts, replicable rules (some two to a body, some with a fact) and
    an and/or of atoms to derive: the shapes that the start budget reads."""
    atom = _random_atom
    inputs = [" /\\ ".join(atom(rng, ()) for _ in range(rng.randint(1, 2)))]
    for _ in range(rng.randint(1, 3)):
        inputs.append(rng.choice([
            lambda: f"$ @x. ({atom(rng, 'x')} -> {atom(rng, 'x')})",
            lambda: f"$ ({atom(rng, ())} -> {atom(rng, ())})",
            lambda: f"$ @x. (({atom(rng, 'x')} -> {atom(rng, 'x')}) /\\ "
                    f"({atom(rng, 'x')} -> {atom(rng, 'x')}))",
            lambda: f"$ ({atom(rng, ())} /\\ ({atom(rng, ())} -> {atom(rng, ())}))",
            lambda: f"@x. ({atom(rng, 'x')} -> {atom(rng, 'x')})",
        ])())
    output = rng.choice([
        lambda: f"#w. {atom(rng, 'w')}",
        lambda: f"{atom(rng, ())} /\\ #w. {atom(rng, 'w')}",
        lambda: f"#w. ({atom(rng, 'w')} \\/ {atom(rng, 'w')})",
    ])()
    return "".join(f"/i{k} = {text}\n" for k, text in enumerate(inputs)) \
        + f"/query = {output}\nquery /query\n"


def test_start_budget_is_admissible_and_keeps_verdicts(monkeypatch):
    # deepening from 0 wins at no budget below the start, at tight and loose
    # depths, and starting there changes no verdict, reason or strategy.
    # The start is above 0 on a good share of the won games
    rng = random.Random(22)
    started = Counter()
    for case, cfg, replicas in _oracle_configurations(rng):
        for max_depth in (2, 3, 4, 64):
            bounds = Bounds(max_depth, replicas if max_depth == 64 else
                            min(replicas, 4), ORACLE_UNIVERSE)
            start = prover._start_budget(cfg, bounds.max_replicas)
            fast = prove(cfg, (), bounds)
            with monkeypatch.context() as patch:
                patch.setattr(prover, "_start_budget", lambda *args: 0)
                full = prove(cfg, (), bounds)
                below = prove(cfg, (), Bounds(max_depth, start - 1,
                                              ORACLE_UNIVERSE)) if start else None
            key = (case, max_depth)
            assert (fast.ok, fast.reason) == (full.ok, full.reason), key
            started[start > 0, full.ok] += 1
            if not full.ok:
                continue
            assert render_strategy(fast.strategy) \
                == render_strategy(full.strategy), key
            assert below is None or not below.ok, (key, start)
            replicas_used = sum(isinstance(m, ReplicateMove)
                                for m in strategy_moves(full.strategy))
            assert start <= replicas_used, (key, start)
    assert started[True, True] >= 25, started


def test_start_budget_on_the_ladders():
    # the factorial after its read needs n replicas, the chain k; an
    # unprovable query, an unread one, a body without a rule and a need
    # beyond max_replicas start at 0
    for n in (0, 3, 12, 40):
        assert prover._start_budget(_fact_after_read(n), 64) == n
    for k in (0, 7, 30):
        assert prover._start_budget(init_configuration(load_kb(_chain(k))), 64) == k
    for kb in ("fact.kb", "ident.kb", "q.kb"):
        assert prover._start_budget(init_configuration(load_kb(data_text(kb))),
                                    64) == 0
    assert prover._start_budget(_fact_after_read(12), 5) == 0


def test_start_budget_work_is_bounded_on_a_partly_driven_game(monkeypatch):
    # /d.1 is written to a rule that could fire forever; the free rules
    # fire for as many rounds as there are of them, so a few matches settle
    # the start (saturating without that limit runs to the fact cap here)
    cfg = apply_read(init_configuration(load_kb(data_text("fact.kb"))),
                     Path("query"), 2, "n")
    for _ in range(2):
        cfg = apply_write(cfg, Path("d", (1,)))
    calls = [0]
    real = prover.unify_atoms

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(prover, "unify_atoms", counting)
    assert prover._start_budget(cfg, 64) == 1
    assert calls[0] <= 10, calls


def _render_recursively(strategy, indent=0):
    """The printer as it was, one frame per step: the reference."""
    pad = "  " * indent
    if isinstance(strategy, Leaf):
        return f"{pad}close"
    if isinstance(strategy, Step):
        head = configuration.move_line(strategy.move)[len("MOVE "):]
        return f"{pad}{head}\n{_render_recursively(strategy.rest, indent)}"
    return (f"{pad}branch read {strategy.path} (@{strategy.var} = any value)\n"
            f"{_render_recursively(strategy.rest, indent + 1)}")


def test_render_strategy_is_iterative_and_matches_the_recursive_one():
    # equal text on small chains, and a 5,000-step chain, deeper than the
    # recursive printer can go, prints in full
    rng = random.Random(23)
    moves = [WriteMove(Path("d", (1,)), gvar="W1"),
             WriteMove(Path("query"), term=Num(3)),
             ReplicateMove(Path("d"), 2)]

    def chain(length):
        node = Leaf()
        for _ in range(length):
            node = EnvBranch(Path("query"), "y", "_e1", node) \
                if rng.random() < 0.3 else Step(rng.choice(moves), node)
        return node

    strategies = [chain(rng.randint(0, 12)) for _ in range(60)]
    strategies += [prove(_fact_after_read(3)).strategy,
                   prove(init_configuration(load_kb(data_text("ident.kb")))).strategy]
    for strategy in strategies:
        for indent in (0, 2):
            assert render_strategy(strategy, indent) \
                == _render_recursively(strategy, indent)
    long = Leaf()
    for i in range(5000):
        long = Step(ReplicateMove(Path("d"), 5000 - i), long)
    lines = render_strategy(long).split("\n")
    assert len(lines) == 5001 and lines[-1] == "close"
    assert lines[0] == "replicate /d idx=1" and lines[-2] == "replicate /d idx=5000"
