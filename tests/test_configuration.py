"""Game-state moves: polarity checks, replication, the replay property,
and the per-region cache against cache-free reference walks."""

import random
import re
from collections import Counter

import pytest

from coli import configuration
from coli.configuration import (MoveOption, Path, ReadMove, ReplicateMove,
                                WriteMove, apply_read, apply_write,
                                init_configuration, legal_moves, move_line,
                                peel_env_symbolic, replay, replicate, resolve)
from coli.directories import load_kb
from coli.errors import BoundError, ColiError, ConfigError, SharedNodeError
from coli.formulas import Atom, DirRef, Exists, Implies, pretty
from coli.graphs import GNode, preorder
from coli.prover import _canonical_key, _dead
from coli.terms import App, Const, GVar, Num, Var

import kb_reference
from conftest import app, data_text, large_kb_text, run_game, snapshot


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


def test_replica_limit(monkeypatch):
    monkeypatch.setattr(configuration, "REPLICA_LIMIT", 2)
    table = load_kb(data_text("fact.kb"))
    cfg = init_configuration(table)
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


# --- the region cache against cache-free reference walks ----------------

def reference_legal_moves(cfg):
    """legal_moves as one recursive walk over the whole node store."""
    options = []

    def walk(name, side, nid, sign, segs):
        if nid in cfg.shared:
            return
        node = cfg.nodes[nid]
        if node.op in ("and", "or", "implies"):
            for i, c in enumerate(node.children, start=1):
                flip = node.op == "implies" and i == 1
                walk(name, side, c, -sign if flip else sign, segs + (i,))
        elif node.op == "neg":
            walk(name, side, node.children[0], -sign, segs + (1,))
        elif node.op in ("all", "exists"):
            machine = (node.op == "exists") == (sign > 0)
            options.append(MoveOption("write" if machine else "read",
                                      Path(name, segs), side))
        elif node.op == "recur":
            reps = node.replicas
            if sign > 0 and not reps and node.children[0] not in cfg.shared:
                body = cfg.nodes[node.children[0]]
                if body.op == "exists":
                    options.append(MoveOption("write", Path(name, segs), side,
                                              collapse=True))
            options.append(MoveOption("replicate", Path(name, segs), side,
                                      index=reps[-1][0] + 1 if reps else 1))
            for idx, rep in reps:
                walk(name, side, rep, sign, segs + (idx,))

    for name, root in cfg.roots.items():
        output = name == cfg.output
        walk(name, "output" if output else "input", root, 1 if output else -1, ())
    return options


def reference_dead(cfg):
    """Whether the position holds a replicated output recurrence, or a
    recurrence, disjunction or negation in an input's content."""
    nodes = cfg.nodes
    output = preorder(nodes, [cfg.roots[cfg.output]])
    return any(nodes[nid].op == "recur" and nodes[nid].replicas
               for nid in output) \
        or any(nodes[nid].op in ("recur", "or", "neg")
               for nid in preorder(nodes, cfg.input_contents()))


def reference_region_key(cfg, root):
    """A region's key as one recursive walk: an item per node in preorder,
    terms flattened to their symbols in preorder."""
    names = {}
    items = []

    def term(t, out):
        if isinstance(t, App):
            out += ("a", t.fn, len(t.args))
            for x in t.args:
                term(x, out)
        elif isinstance(t, GVar):
            out += ("g", names.setdefault(t.name, f"g{len(names)}"))
        elif isinstance(t, Const):
            out += ("c", t.name)
        elif isinstance(t, Num):
            out += ("n", t.value)
        else:
            assert isinstance(t, Var)
            out += ("v", t.name)
        return out

    def walk(nid):
        node = cfg.nodes[nid]
        item = (node.op, node.pred or "", node.var or "",
                tuple(tuple(term(t, [])) for t in node.args),
                len(node.children))
        if node.op == "recur":
            item += (tuple(sorted(reference_region_key(cfg, rep)
                                  for _idx, rep in node.replicas)),)
        items.append(item)
        for c in node.children:
            walk(c)

    walk(root)
    return tuple(items)


def reference_key(cfg):
    """The prover's position key from the recursive region walks."""
    return tuple((name, name == cfg.output, reference_region_key(cfg, root))
                 for name, root in cfg.roots.items())


# rec.kb's clauses under a nested input recurrence, an input recurrence
# over a disjunction and a negation, an output recurrence a write can
# collapse, a replicated shared node, an environment quantifier on the
# output and a machine one under negation
REC_GAME = ("/i = $ @x. (!/m(1) /\\ $ #u. q(x,u))\n"
            "/j = $ @x. (q(x,x) \\/ ~t(x))\n"
            "/query = ($ #z. (r(z) \\/ /m(1))) /\\ "
            "(@y. ~(#w. s(y,w)) -> /m(1)) /\\ $ $ @v. t(v) /\\ $ /m(1)\n"
            "query /query\n")


def _random_move(rng, cfg):
    """A random legal move of a kind the prover or a script makes."""
    opt = rng.choice(legal_moves(cfg))
    value = rng.choice([Num(rng.randrange(4)), Const("a"), app("s", Num(1))])
    if opt.kind == "read":
        if rng.random() < 0.5:
            return peel_env_symbolic(cfg, opt.path, Const(f"_e{rng.randrange(3)}"))[0]
        return apply_read(cfg, opt.path, rng.randrange(5), "v")
    if opt.kind == "write":  # plain or collapsing
        return apply_write(cfg, opt.path, value if rng.random() < 0.4 else None)
    fresh = opt.index + rng.randrange(3)
    if rng.random() < 0.5:
        # on demand, through a path into a replica that does not exist yet;
        # a replica root that is a shared node has no such path
        path = Path(opt.path.dir, opt.path.segments + (fresh,))
        for attempt in (lambda: apply_write(cfg, path),
                        lambda: apply_read(cfg, path, rng.randrange(5), "v"),
                        lambda: resolve(cfg, path, create=True)[0]):
            try:
                return attempt()
            except ConfigError:
                pass
    return replicate(cfg, opt.path, fresh)


@pytest.mark.parametrize("kb,mixed", [(data_text("q.kb"), True),
                                      (data_text("fact.kb"), False),
                                      (data_text("ident.kb"), False),
                                      (data_text("rec.kb") + REC_GAME, True)],
                         ids=["q", "fact", "ident", "rec"])
def test_region_cache_matches_reference_walks(kb, mixed):
    # after every move the cached options, dead flags and key equal a walk
    # of the whole store, in the child and in the parent it was made
    # from; each configuration is asked before, after or never before its
    # children are made, so children start from full, partial and empty
    # caches.  On q and rec the walks meet both dead and live positions
    start = init_configuration(load_kb(kb))
    rng = random.Random(9)
    checked = dead = 0
    for _walk in range(40):
        cfg = start
        for _move in range(10):
            if not reference_legal_moves(cfg):
                break
            if rng.random() < 0.5:
                assert legal_moves(cfg) == reference_legal_moves(cfg)
            if rng.random() < 0.5:
                assert _canonical_key(cfg) == reference_key(cfg)
            before = snapshot(cfg)
            child = _random_move(rng, cfg)
            for c in (child, cfg):
                assert legal_moves(c) == reference_legal_moves(c)
                assert _dead(c) == reference_dead(c)
                assert _canonical_key(c) == reference_key(c)
            assert snapshot(cfg) == before
            dead += _dead(child)
            cfg = child
            checked += 1
    assert checked > 100
    if mixed:
        assert dead > 10 and checked - dead >= 10


# the store built in one pass against expansion, renumbering and in-degrees

def reference_init(table, input_names=None, output_name=None):
    """(nodes, roots, shared) of the initial store, built the way it was
    before services were expanded in place: expand each service into a
    graph of its own with the reference expander, renumber its nodes in id
    order after the store's, and take as shared the nodes with more than
    one parent."""
    output_name = output_name or table.query
    if input_names is None:
        input_names = [n for n in table.input_names() if n != output_name]
    nodes, roots, shared = {}, {}, set()
    for name in list(input_names) + [output_name]:
        if name not in table.defs:
            raise ConfigError(f"undefined service /{name}")
        graph = kb_reference.expand(table, DirRef(name))
        mapping = {}
        for old in sorted(graph.nodes):  # children precede parents
            node = graph.nodes[old]
            mapping[old] = len(nodes)
            nodes[mapping[old]] = GNode(
                node.op, tuple(mapping[c] for c in node.children), node.pred,
                node.args, node.var, node.replicas)
        roots[name] = mapping[graph.root]
        parents = Counter(c for node in graph.nodes.values()
                          for c in node.children)
        shared.update(mapping[nid] for nid, count in parents.items()
                      if count > 1)
    return nodes, roots, frozenset(shared)


def _assert_same_init(table, output_name=None):
    """Check init_configuration against reference_init: the same store, or
    the same error; returns the configuration, if any."""
    try:
        want = reference_init(table, output_name=output_name)
    except ColiError as exc:
        with pytest.raises(ColiError) as raised:
            init_configuration(table, output_name=output_name)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return None
    cfg = init_configuration(table, output_name=output_name)
    assert (cfg.nodes, cfg.roots, cfg.shared) == want
    return cfg


@pytest.mark.parametrize("kb,output", [
    (data_text("fact.kb"), None), (data_text("ident.kb"), None),
    (data_text("q.kb"), None), (data_text("rec.kb") + REC_GAME, None),
    (data_text("dirs.kb"), "n"), (data_text("dirs.kb"), "o"),
    (SHARED_KB, None), (SHARED_RECUR_KB, None),
], ids=["fact", "ident", "q", "rec", "dirs-copy", "dirs-shared", "shared",
        "shared-recur"])
def test_init_matches_the_reference_store(kb, output):
    _assert_same_init(load_kb(kb), output)


@pytest.mark.parametrize("kb,output,error", [
    ("/a = /nosuch\n", "a", "undefined directory /nosuch"),
    ("/d = p\n", "missing", "undefined service /missing"),
    (data_text("rec.kb") + "/o = /m(f(1))\n", "o", "/m: no clause matches f(1)"),
    (data_text("rec.kb"), "m", "/m takes 1 argument(s), got 0"),
    ("/a = p /\\ /a\n", "a", "expansion of /a exceeded depth 1024"),
], ids=["undefined-directory", "undefined-service", "no-clause", "arity",
        "depth"])
def test_init_fails_as_the_reference_does(kb, output, error):
    table = load_kb(kb)
    with pytest.raises(ColiError, match=f"^{re.escape(error)}$"):
        reference_init(table, output_name=output)
    _assert_same_init(table, output)


def _random_store_kb(rng):
    """A KB of parameterised families, helper directories and services
    that reach them through copy references and shared references used
    one to three times."""
    lines, refs = [], []
    for f in range(rng.randint(0, 2)):
        bang = rng.choice(["", "!"])
        lines += [f"/f{f}(0) = f{f}({rng.randrange(4)})",
                  f"/f{f}(s(X)) = f{f}(X) /\\ {bang}/f{f}(X)"]
        refs += [f"/f{f}({rng.randrange(4)})", f"/f{f}(1+{rng.randrange(3)})"]

    def formula(depth, bound):
        pick = rng.randrange(9 if depth else 2)
        if pick == 0:
            return f"p{rng.randrange(3)}({rng.choice(bound + ['1', 'a'])})"
        if pick == 1:
            return rng.choice(["", "!"]) + rng.choice(refs) if refs else "t"
        if pick < 5:
            op = rng.choice(["/\\", "\\/", "->"])
            return (f"({formula(depth - 1, bound)} {op} "
                    f"{formula(depth - 1, bound)})")
        if pick < 7:
            var = f"x{len(bound)}"
            return (f"{rng.choice('@#')}{var}. "
                    f"({formula(depth - 1, bound + [var])})")
        return f"{rng.choice('~$')}({formula(depth - 1, bound)})"

    for d in range(rng.randint(1, 4)):
        lines.append(f"/d{d} = {formula(3, [])}")
        refs.append(f"/d{d}")
    for s in range(rng.randint(1, 3)):
        parts = [formula(2, [])]
        parts += [rng.choice(refs)] * rng.randint(1, 3)
        parts += [rng.choice(["", "!"]) + rng.choice(refs)
                  for _ in range(rng.randint(0, 2))]
        rng.shuffle(parts)
        lines.append(f"/s{s} = " + " /\\ ".join(parts))
    lines.append(f"query /s{s}")
    return "\n".join(lines) + "\n"


def test_init_matches_the_reference_store_on_random_kbs():
    rng = random.Random(15)
    shared = 0
    for _ in range(300):
        shared += bool(_assert_same_init(load_kb(_random_store_kb(rng))).shared)
    assert shared > 250  # most of them hold a shared node


@pytest.mark.parametrize("services,families", [(4, 1), (8, 2), (24, 3), (60, 7)])
def test_init_matches_the_reference_store_on_large_kb_shapes(services, families):
    # one init resolves each reference once for all services; the oracle
    # resolves it at every occurrence
    rng = random.Random(services)
    for _ in range(5):
        cfg = _assert_same_init(load_kb(large_kb_text(rng, services, families)))
        assert len(cfg.shared) == services // 4 + (services % 4 > 2)
