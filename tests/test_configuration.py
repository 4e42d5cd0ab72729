"""Game-state moves: polarity checks, replication, the replay property."""

from collections import Counter

import pytest

from coli.configuration import (Path, ReadMove, ReplicateMove, WriteMove,
                                apply_read, apply_write, init_configuration,
                                legal_moves, move_line, peel_env_symbolic,
                                replay, replicate, resolve)
from coli.directories import load_kb
from coli.errors import BoundError, ConfigError, SharedNodeError
from coli.formulas import Atom, Exists, Implies, pretty
from coli.terms import Const, GVar, Num, app

from conftest import data_text, run_game, snapshot


# a shared node holding a machine quantifier, beside an unshared one
SHARED_KB = "/m = p /\\ #x. q(x)\n/o = /m /\\ /m /\\ #y. r(y)\nquery /o\n"
# an output recurrence whose body is a shared machine quantifier
SHARED_RECUR_KB = "/m = #x. p(x)\n/o = $ /m /\\ /m\nquery /o\n"


def out_formula(cfg):
    return cfg.formula_at(cfg.root_of(cfg.output))


def test_init_factorial(fact_table, fact_config):
    cfg = fact_config
    assert list(cfg.roots) == ["c", "d", "query"]
    assert cfg.output == "query"
    assert pretty(cfg.formula_at(cfg.root_of("c"))) == "fact(0,1)"
    assert pretty(out_formula(cfg)) == "@y. #z. fact(y,z)"
    assert cfg.trace == [] and cfg.next_gvar == 1


def test_init_no_inputs():
    table = load_kb("/query = p\nquery /query\n")
    cfg = init_configuration(table)
    assert list(cfg.roots) == ["query"]


def test_init_undefined_service():
    table = load_kb("/d = p\n")
    with pytest.raises(ConfigError):
        init_configuration(table, output_name="missing")


def test_initial_legal_moves(fact_config):
    # derived by hand: the only active points are the environment's @y on
    # the output and replication of the /d recurrence
    moves = [(o.kind, str(o.path)) for o in legal_moves(fact_config)]
    assert moves == [("replicate", "/d"), ("read", "/query")]


def test_legal_moves_after_read(fact_config):
    cfg = apply_read(fact_config, Path("query"), 3, "n")
    kinds = {(o.kind, str(o.path)) for o in legal_moves(cfg)}
    assert ("write", "/query") in kinds


def test_no_moves_on_elementary_output():
    table = load_kb("/query = p\nquery /query\n")
    assert legal_moves(init_configuration(table)) == []


def test_apply_read(fact_config):
    cfg = apply_read(fact_config, Path("query"), 3, "n")
    assert pretty(out_formula(cfg)) == "#z. fact(3,z)"
    assert cfg.trace == [ReadMove(Path("query"), 3, "n")]

    zero = apply_read(fact_config, Path("query"), 0, "n")
    assert pretty(out_formula(zero)) == "#z. fact(0,z)"


def test_apply_read_wrong_polarity(fact_config):
    cfg = apply_read(fact_config, Path("query"), 3, "n")
    with pytest.raises(ConfigError, match="polarity"):
        apply_read(cfg, Path("query"), 1, "m")  # #z belongs to the machine


def test_apply_write_output(fact_config):
    cfg = apply_read(fact_config, Path("query"), 3, "n")
    cfg = apply_write(cfg, Path("query"))
    assert out_formula(cfg) == Atom("fact", (Num(3), GVar("W1")))
    assert cfg.trace[-1].gvar == "W1" and cfg.next_gvar == 2


def test_apply_write_twice_peels_successive(fact_config):
    cfg = replicate(fact_config, Path("d"), 1)
    cfg = apply_write(cfg, Path("d", (1,)))
    cfg = apply_write(cfg, Path("d", (1,)))
    replica = cfg.formula_at(dict(cfg.nodes[cfg.root_of("d")].replicas)[1])
    want = Implies(
        Atom("fact", (GVar("W1"), GVar("W2"))),
        Atom("fact", (app("+", GVar("W1"), Num(1)),
                      app("+", app("*", GVar("W1"), GVar("W2")), GVar("W2")))))
    assert replica == want


def test_apply_write_on_atom_errors():
    table = load_kb("/query = p\nquery /query\n")
    with pytest.raises(ConfigError):
        apply_write(init_configuration(table), Path("query"))


def test_replicate_explicit_and_errors(fact_config):
    cfg = replicate(fact_config, Path("d"), 1)
    replica = cfg.formula_at(dict(cfg.nodes[cfg.root_of("d")].replicas)[1])
    assert pretty(replica) == "@x. @y. (fact(x,y) -> fact(x+1,x*y+y))"
    with pytest.raises(ConfigError):
        replicate(cfg, Path("d"), 1)  # already created
    with pytest.raises(ConfigError):
        replicate(cfg, Path("c"), 1)  # not a recurrence


def test_replicate_on_demand(fact_config):
    cfg = apply_write(fact_config, Path("d", (2,)))
    root = cfg.root_of("d")
    assert [idx for idx, _rep in cfg.nodes[root].replicas] == [2]
    assert [type(m).__name__ for m in cfg.trace] == ["ReplicateMove", "WriteMove"]


def test_replica_limit():
    table = load_kb(data_text("fact.kb"))
    cfg = init_configuration(table, replica_limit=2)
    cfg = replicate(cfg, Path("d"), 1)
    cfg = replicate(cfg, Path("d"), 2)
    with pytest.raises(BoundError):
        replicate(cfg, Path("d"), 3)


def test_collapse_write_output_recurrence():
    table = load_kb(data_text("q.kb"))
    cfg = init_configuration(table)
    cfg = apply_write(cfg, Path("q", (1,)))
    assert pretty(out_formula(cfg)) == "p(W1) \\/ q(a)"


def test_collapse_write_rejected_on_input():
    table = load_kb(data_text("fact.kb"))
    cfg = init_configuration(table)
    with pytest.raises(ConfigError):
        apply_write(cfg, Path("d"))


def test_no_path_into_an_unplayed_quantifier():
    # /q.1 is the recurrence under the quantifier: replicating it before the
    # quantifier is played would leave the replica keyed by a node that the
    # peel later discards
    cfg = init_configuration(load_kb("/q = #x. $ p(x)\nquery /q\n"))
    with pytest.raises(ConfigError, match="quantifier not yet played"):
        replicate(cfg, Path("q", (1,)), 1)
    with pytest.raises(ConfigError, match="quantifier not yet played"):
        apply_write(cfg, Path("q", (1, 1)))
    cfg = apply_write(cfg, Path("q"))
    assert not any(node.replicas for node in cfg.nodes.values())
    assert [(o.kind, str(o.path)) for o in legal_moves(cfg)] == \
        [("replicate", "/q")]
    cfg = replicate(cfg, Path("q"), 1)
    assert [nid for nid, node in cfg.nodes.items() if node.replicas] == \
        [cfg.root_of("q")]
    assert pretty(out_formula(cfg)) == "$p(W1)"


def test_shared_node_is_read_only():
    table = load_kb("/m = #x. p(x)\n/o = /m /\\ /m\nquery /o\n")
    cfg = init_configuration(table, input_names=[])
    with pytest.raises(SharedNodeError):
        apply_write(cfg, Path("o", (1,)))


def test_recurrence_over_a_shared_body():
    # the body is neither collapsed into nor copied: replicas point at it
    cfg = init_configuration(load_kb(SHARED_RECUR_KB), input_names=[])
    assert [(o.kind, str(o.path)) for o in legal_moves(cfg)] == \
        [("replicate", "/o.1")]
    with pytest.raises(SharedNodeError):
        apply_write(cfg, Path("o", (1,)))
    cfg = replicate(cfg, Path("o", (1,)), 1)
    recur = cfg.nodes[cfg.root_of("o")].children[0]
    assert cfg.nodes[recur].replicas == ((1, cfg.nodes[recur].children[0]),)
    with pytest.raises(SharedNodeError):
        apply_write(cfg, Path("o", (1, 1)))


def _all_paths(cfg, inside_shared=False):
    """Every structural address of the configuration, replicas included;
    with `inside_shared`, only those at or below a shared node."""
    paths = []

    def walk(name, nid, segs, depth, below):
        below = below or nid in cfg.shared
        if below or not inside_shared:
            paths.append(Path(name, segs))
        if depth > 6:
            return
        node = cfg.nodes[nid]
        if node.op == "recur":
            for idx, rep in node.replicas:
                walk(name, rep, segs + (idx,), depth + 1, below)
        else:
            for i, child in enumerate(node.children, start=1):
                walk(name, child, segs + (i,), depth + 1, below)

    for name, root in cfg.roots.items():
        walk(name, root, (), 0, False)
    return paths


def test_every_legal_move_applies_and_others_fail(fact_config):
    # exhaustively: applying (kind, path) succeeds exactly when listed
    cfg = apply_read(fact_config, Path("query"), 1, "n")
    fact_midgame = apply_write(cfg, Path("d", (1,)))
    shared = [init_configuration(load_kb(kb))
              for kb in (SHARED_KB, SHARED_RECUR_KB)]
    for cfg in [fact_midgame] + shared:
        listed = {(o.kind, o.path): o for o in legal_moves(cfg)}
        for path in _all_paths(cfg):
            for kind in ("read", "write", "replicate"):
                def attempt():
                    if kind == "write":
                        # disable on-demand replication so unlisted paths fail
                        return apply_write(cfg, path)
                    if kind == "read":
                        return apply_read(cfg, path, 0, "v")
                    return replicate(cfg, path, listed.get((kind, path),
                                                           None).index
                                     if (kind, path) in listed else 1)
                if (kind, path) in listed:
                    attempt()
                else:
                    with pytest.raises(ConfigError):
                        attempt()
        with pytest.raises(ConfigError):
            apply_read(cfg, Path("nosuch"), 0, "v")


def _in_degrees(cfg):
    """Parents of every node reachable from the service roots, replica
    edges of a recurrence included, counted without the library's walks."""
    degrees = Counter()
    seen = set()
    stack = list(cfg.roots.values())
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        node = cfg.nodes[nid]
        kids = list(node.children) + [rep for _idx, rep in node.replicas]
        for kid in kids:
            degrees[kid] += 1
            stack.append(kid)
    return degrees


def _check_shared(cfg, first_seen):
    degrees = _in_degrees(cfg)
    assert {nid for nid, d in degrees.items() if d > 1} <= cfg.shared
    for nid in cfg.shared:
        assert cfg.nodes[nid] == first_seen.setdefault(nid, cfg.nodes[nid])
    for path in _all_paths(cfg, inside_shared=True):
        with pytest.raises(SharedNodeError):
            apply_write(cfg, path)


def _explore(cfg, depth, first_seen):
    """Apply every legal move sequence up to depth, checking each state."""
    _check_shared(cfg, first_seen)
    if depth == 0:
        return
    for opt in legal_moves(cfg):
        if opt.kind == "read":
            child = apply_read(cfg, opt.path, 1, "v")
        elif opt.kind == "write":
            child = apply_write(cfg, opt.path)
        else:
            child = replicate(cfg, opt.path, opt.index)
        _explore(child, depth - 1, first_seen)


@pytest.mark.parametrize("kb,query", [
    (data_text("fact.kb"), None), (data_text("ident.kb"), None),
    (data_text("q.kb"), None), (data_text("dirs.kb"), "o"),
    (data_text("dirs.kb"), "n"), (SHARED_KB, None),
    # peeling #x copies the shared #y into /o.1, which must turn read-only
    ("/m = #y. p(y)\n/o = (#x. /m) /\\ /m\nquery /o\n", None),
], ids=["fact", "ident", "q", "dirs-o", "dirs-n", "shared", "shared-body"])
def test_shared_nodes_stay_read_only(kb, query):
    # the shared set covers every node with two parents, shared nodes never
    # change, and no write reaches inside one, along every move sequence
    table = load_kb(kb)
    _explore(init_configuration(table, output_name=query), 4, {})


def test_gvar_count_matches_fresh_writes():
    outcome, cfg, _ = run_game("fact.kb", "fact.coli", [4])
    fresh = [m for m in cfg.trace
             if isinstance(m, WriteMove) and m.gvar is not None]
    assert outcome.won
    assert cfg.next_gvar - 1 == len(fresh) == 9
    assert [m.gvar for m in fresh] == [f"W{i}" for i in range(1, 10)]


def test_trace_replay_reproduces_configuration(fact_table):
    outcome, cfg, _ = run_game("fact.kb", "fact.coli", [3])
    assert outcome.won
    again = replay(fact_table, cfg.trace)
    assert snapshot(again) == snapshot(cfg)


def test_moves_leave_their_input_unchanged(fact_config):
    # configurations are values: a move returns a new one and changes
    # nothing that its input holds
    read = apply_read(fact_config, Path("query"), 3, "n")
    one = replicate(fact_config, Path("d"), 1)
    q = init_configuration(load_kb(data_text("q.kb")))
    moves = [
        (fact_config, lambda c: apply_read(c, Path("query"), 3, "n")),
        (read, lambda c: apply_write(c, Path("query"))),
        (read, lambda c: apply_write(c, Path("query"), term=Num(6))),
        (q, lambda c: apply_write(c, Path("q", (1,)))),  # collapse
        (fact_config, lambda c: replicate(c, Path("d"), 1)),
        (one, lambda c: replicate(c, Path("d"), 2)),
        (one, lambda c: apply_write(c, Path("d", (3,)))),  # replicates /d.3
        (one, lambda c: resolve(c, Path("d", (2,)), create=True)[0]),
        (fact_config,
         lambda c: peel_env_symbolic(c, Path("query"), Const("_e1"))[0]),
    ]
    for cfg, move in moves:
        before = snapshot(cfg)
        after = move(cfg)
        assert snapshot(cfg) == before
        assert snapshot(after) != before


def test_move_line_formats():
    assert move_line(ReadMove(Path("query"), 3, "n")) == \
        "MOVE read /query value=3 var=n"
    assert move_line(WriteMove(Path("d", (1,)), gvar="W2")) == \
        "MOVE write /d.1 var=W2"
    assert move_line(WriteMove(Path("q", (1,)), term=Num(0))) == \
        "MOVE write /q.1 term=0"
    assert move_line(ReplicateMove(Path("d"), 2)) == "MOVE replicate /d idx=2"


def test_input_side_environment_read_is_symmetric():
    # #x on an input belongs to the environment; reads work there too
    table = load_kb("/e = #x. p(x)\n/query = q(a)\nquery /query\n")
    cfg = init_configuration(table)
    opts = [(o.kind, str(o.path), o.side) for o in legal_moves(cfg)]
    assert opts == [("read", "/e", "input")]
    cfg2 = apply_read(cfg, Path("e"), 5, "v")
    assert pretty(cfg2.formula_at(cfg2.root_of("e"))) == "p(5)"
    with pytest.raises(ConfigError):
        apply_write(cfg, Path("e"))


def test_write_at_structural_child_path():
    table = load_kb("/k = q(c)\n/query = (#x. p(x)) /\\ q(c)\nquery /query\n")
    cfg = init_configuration(table)
    assert [(o.kind, str(o.path)) for o in legal_moves(cfg)] == \
        [("write", "/query.1")]
    cfg2 = apply_write(cfg, Path("query", (1,)))
    assert pretty(cfg2.formula_at(cfg2.root_of("query"))) == "p(W1) /\\ q(c)"


def test_quantifier_under_negation_flips_polarity():
    table = load_kb("/query = ~(#x. p(x))\nquery /query\n")
    cfg = init_configuration(table)
    opts = [(o.kind, str(o.path)) for o in legal_moves(cfg)]
    assert opts == [("read", "/query.1")]


def test_sides_and_untouched_services(fact_config):
    before = fact_config.formula_at(fact_config.root_of("c"))
    cfg = apply_read(fact_config, Path("query"), 2, "n")
    assert (cfg.roots, cfg.output) == (fact_config.roots, fact_config.output)
    assert cfg.formula_at(cfg.root_of("c")) == before
