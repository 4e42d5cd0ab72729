"""Directory definitions, pattern clauses, and copy/shared expansion."""

import gc
import random
from collections import Counter

import pytest

from coli import directories
from coli.directories import expand, load_kb, match_pattern
from coli.errors import DepthLimitError, ExpandError, KBError
from coli.formulas import All, And, Atom, DirRef, Exists, Neg, children, pretty
from coli.graphs import FormulaGraph, GNode, preorder
from coli.parser import (FormulaParser, TokenStream, parse_dirref, parse_formula,
                         parse_pattern)
from coli.terms import App, Const, Num, Var

import kb_reference
from conftest import BoundedStore, app, data_text, graph_depth, large_kb_text


def _table(text):
    return load_kb(text)


def test_define_simple():
    table = _table("/m = p(a)\n")
    assert table.defs["m"].arity == 0
    assert table.defs["m"].clauses[0].body == parse_formula("p(a)")


def test_define_recursive_two_clauses():
    table = _table(data_text("rec.kb"))
    assert table.defs["m"].arity == 1
    assert len(table.defs["m"].clauses) == 2


def test_redefinition_replaces():
    table = _table("/m = p(a)\n/m = p(b)\n")
    assert table.defs["m"].clauses[0].body == parse_formula("p(b)")


def test_arity_conflict_rejected():
    with pytest.raises(KBError):
        _table("/m = p\n/m(0) = q\n")


def test_overlapping_patterns_rejected():
    with pytest.raises(KBError):
        _table("/m(s(X)) = p\n/m(s(0)) = q\n")
    with pytest.raises(KBError):
        _table("/m(X) = p\n/m(0) = q\n")


def test_overlap_names_the_earliest_clause():
    text = "/m(0) = p\n/n = q\n/m(s(0)) = p\n/m(s(X)) = q\n/m(2) = p\n"
    with pytest.raises(KBError, match=r"^line 4: /m: overlapping patterns "
                                      r"s\(0\) and s\(X\)$"):
        _table(text)


def _random_pattern(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return rng.choice([Num(0), Num(1), Num(2), Var("X"), Var("Y"), Const("a")])
    if roll < 0.7:
        return app("s", _random_pattern(rng, depth - 1))
    return app("f", _random_pattern(rng, depth - 1), _random_pattern(rng, depth - 1))


def test_patterns_overlap_matches_the_recursive_check():
    # the pairs of subpatterns wait on a stack; the recursive check that
    # this replaced is kept in kb_reference
    rng = random.Random(24)
    overlapping = 0
    for _ in range(600):
        p, q = _random_pattern(rng, 4), _random_pattern(rng, 4)
        want = kb_reference._patterns_overlap(p, q)
        assert directories._patterns_overlap(p, q) == want, (p, q)
        overlapping += want
    assert 100 < overlapping < 500, overlapping


def test_clauses_added_one_line_at_a_time():
    table = _table("/m(0) = p\n/n = q\n/m(s(X)) = r(X)\n")
    assert [c.pattern for c in table.defs["m"].clauses] == [Num(0), app("s", Var("X"))]
    # the pattern's parameter is in scope in the body, which keeps it unbound
    assert table.defs["m"].clauses[1].body == Atom("r", (Var("X"),))


def test_parse_pattern_returns_parameter_names():
    # in order of first occurrence; lowercase names are constants
    assert parse_pattern("f(X, s(Y), X, a)") == (
        app("f", Var("X"), app("s", Var("Y")), Var("X"), Const("a")), ("X", "Y"))


@pytest.mark.parametrize("binder", ["@", "#"])
def test_uppercase_quantifier_variables_are_rejected(binder):
    # so a quantifier never binds a parameter's name
    with pytest.raises(KBError, match=r"^line 1: expected quantifier variable, "
                                      r"found 'X' \(line 1, col 10\)$"):
        _table(f"/m(X) = {binder}X. p(X)\n")


def test_expand_binds_parameters_under_binders_and_in_references():
    table = _table("/m(X) = @x. (p(x,X) /\\ #y. /n(s(X)))\n/n(Y) = q(Y)\n")
    graph = expand(table, parse_dirref("/m(2)"))
    assert graph.to_formula() == All("x", And(Atom("p", (Var("x"), Num(2))),
                                              Exists("y", Atom("q", (Num(3),)))))


def test_expand_never_captures_a_parameter_value():
    # the value x is a constant; the binder's x stays a variable of its own
    table = _table("/m(X) = @x. p(x,X)\n")
    graph = expand(table, parse_dirref("/m(x)"))
    assert graph.to_formula() == All("x", Atom("p", (Var("x"), Const("x"))))


def test_expand_binds_every_parameter_of_a_pattern():
    table = _table("/m(f(X,Y)) = p(X,Y) /\\ q(Y,s(X))\n")
    graph = expand(table, parse_dirref("/m(f(1,a))"))
    assert graph.to_formula() == And(Atom("p", (Num(1), Const("a"))),
                                     Atom("q", (Const("a"), app("s", Num(1)))))


def test_expand_leaves_bodies_without_parameters_unchanged():
    table = _table("/c = @x. #y. (p(x,y,a) -> ~q(x))\n/m(X) = @x. r(x,b)\n"
                   "/e = $ @x. #y. (p(x) \\/ q(y) /\\ ~r -> s(x,y))\n")
    for ref, name in (("/c", "c"), ("/m(5)", "m"), ("/e", "e")):
        graph = expand(table, parse_dirref(ref))
        assert graph.to_formula() == table.defs[name].clauses[0].body


def test_load_checks_each_pair_of_clauses_once(monkeypatch):
    # each clause line is checked against the earlier clauses only
    calls = []
    real = directories._patterns_overlap
    monkeypatch.setattr(directories, "_patterns_overlap",
                        lambda p, q: calls.append((p, q)) or real(p, q))
    k = 60
    table = _table("".join(f"/f({i}) = p\n" for i in range(k)))
    assert len(table.defs["f"].clauses) == k
    assert len(calls) == k * (k - 1) // 2
    assert len(set(calls)) == len(calls)


def test_match_pattern_numeral_interop():
    assert match_pattern(app("s", Var("X")), Num(3)) == {"X": Num(2)}
    assert match_pattern(Num(0), Num(0)) == {}
    assert match_pattern(app("s", Var("X")), Num(0)) is None
    assert match_pattern(app("s", Var("X")), app("s", Num(4))) == {"X": Num(4)}


def test_expand_recursive_copy():
    table = _table(data_text("rec.kb"))
    graph = expand(table, parse_dirref("/m(s(s(s(0))))"))
    assert pretty(graph.to_formula()) == "p /\\ (p /\\ (p /\\ q))"


def test_expand_depth_and_counts():
    table = _table(data_text("rec.kb"))
    for k in range(17):
        ref = DirRef("m", (Num(k),))
        graph = expand(table, ref)
        assert graph_depth(graph) == k
        rendered = pretty(graph.to_formula())
        assert rendered.count("p") == k
        assert rendered.count("q") == 1


def test_expand_copy_vs_shared():
    table = _table(data_text("dirs.kb"))
    copied = expand(table, parse_dirref("/n"))
    atoms = [nid for nid in preorder(copied.nodes, [copied.root])
             if copied.nodes[nid].op == "atom"]
    assert len(atoms) == 2 and atoms[0] != atoms[1]

    shared = expand(table, parse_dirref("/o"))
    atoms = [nid for nid in preorder(shared.nodes, [shared.root])
             if shared.nodes[nid].op == "atom"]
    assert len(atoms) == 1
    assert shared.in_degrees()[atoms[0]] == 2


def test_shared_references_to_distinct_terms_stay_apart():
    # a*(b+c) and a*b+c are different terms and get a node each
    table = _table("/m(X) = p(X)\n/k(X) = /m(a*X) /\\ /m(a*b+c)\n/o = /k(b+c)\n")
    graph = expand(table, parse_dirref("/o"))
    a, b, c = Const("a"), Const("b"), Const("c")
    assert graph.to_formula() == And(Atom("p", (app("*", a, app("+", b, c)),)),
                                     Atom("p", (app("+", app("*", a, b), c),)))
    assert sorted(graph.in_degrees().values()) == [0, 1, 1]


def test_expand_never_leaves_refs():
    cases = [(data_text("rec.kb"), "/m(s(s(0)))"),
             (data_text("dirs.kb"), "/n"),
             (data_text("dirs.kb"), "/o")]
    for kb, text in cases:
        graph = expand(_table(kb), parse_dirref(text))
        for nid in preorder(graph.nodes, [graph.root]):
            assert not isinstance(graph.to_formula(nid), DirRef)


def test_expand_errors():
    table = _table(data_text("rec.kb"))
    with pytest.raises(ExpandError):
        expand(table, parse_dirref("/nosuch"))
    with pytest.raises(ExpandError):
        expand(table, DirRef("m", (app("f", Num(1)),)))  # no matching clause
    looping = _table("/a = /a\n")
    with pytest.raises(DepthLimitError):
        expand(looping, parse_dirref("/a"))


def test_deep_reference_reaches_the_depth_limit(default_recursion_limit):
    # 1,000 nested s(...) parse without recursion; expansion stops at its bound
    ref = parse_dirref("/m(" + "s(" * 1000 + "0" + ")" * 1001)
    with pytest.raises(DepthLimitError, match="^expansion of /m exceeded depth 1024$"):
        expand(_table(data_text("rec.kb")), ref)


def test_to_formula_unfolds_a_deep_chain(default_recursion_limit):
    nodes = {0: GNode("atom", pred="p")}
    for nid in range(1, 3001):
        nodes[nid] = GNode("neg", children=(nid - 1,))
    graph = FormulaGraph(nodes=nodes, root=3000)
    f, depth = graph.to_formula(), 0
    while isinstance(f, Neg):
        f, depth = f.body, depth + 1
    assert (depth, f) == (3000, Atom("p"))


def test_to_formula_unfolds_shared_nodes():
    table = _table("/h(0) = leaf\n/h(s(X)) = /h(X) /\\ /h(X)\n")
    graph = expand(table, parse_dirref("/h(3)"))
    assert len(graph.nodes) == 4
    two = parse_formula("(leaf /\\ leaf) /\\ (leaf /\\ leaf)")
    assert graph.to_formula() == And(two, two)
    # 2^60 leaves unfolded: each of the 61 nodes is built once and reused
    graph = expand(table, parse_dirref("/h(60)"))
    f = FormulaGraph(nodes=BoundedStore(graph.nodes, 3 * len(graph.nodes)),
                     root=graph.root).to_formula()
    assert f.left is f.right


def _leaves(table) -> list:
    """Every Var, Const and Num object in the table's patterns and bodies."""
    stack = [part for d in table.defs.values() for c in d.clauses
             for part in (c.pattern, c.body) if part is not None]
    found = []
    while stack:
        x = stack.pop()
        if isinstance(x, (Var, Const, Num)):
            found.append(x)
        else:
            stack.extend(x.args if isinstance(x, (Atom, DirRef, App)) else children(x))
    return found


def test_load_kb_builds_one_parser_per_file_and_shares_its_leaves(monkeypatch):
    built = Counter()

    def counted(cls):
        init = cls.__init__

        def counting_init(self, *args, **kwargs):
            built[cls.__name__] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting_init)

    counted(FormulaParser)
    counted(TokenStream)
    text = large_kb_text(random.Random(19), services=180, families=10)
    first = load_kb(text)
    assert sum(len(d.clauses) for d in first.defs.values()) == 203
    assert built == {"FormulaParser": 1, "TokenStream": 1}
    leaves = _leaves(first)
    distinct: dict = {}
    for leaf in leaves:  # equal leaves of one table are one object
        assert distinct.setdefault(leaf, leaf) is leaf
    assert len(leaves) > 3 * len(distinct)
    # no table shares a leaf object with another load of the same text
    again = _leaves(load_kb(text))
    assert not {id(leaf) for leaf in leaves} & {id(leaf) for leaf in again}


def test_loading_and_expansion_leave_no_reference_cycles():
    # cyclic garbage lives until the cycle collector runs, which sets the
    # peak memory of a process that loads and expands large KBs
    gc.collect()
    gc.disable()
    try:
        table = load_kb(data_text("rec.kb") + "/o = /m(3) /\\ /m(3)\n")
        expand(table, parse_dirref("/m(s(s(20)))"))
        expand(table, parse_dirref("/o"))
        assert gc.collect() == 0
    finally:
        gc.enable()

def test_kb_comments_and_query():
    table = _table("# heading\n  # indented comment\n/c = fact(0,1)\nquery /c\n")
    assert table.query == "c"
    assert table.defs["c"].clauses[0].body == Atom("fact", (Num(0), Num(1)))


def test_kb_input_names_skip_parameterized_and_query():
    table = _table(data_text("fact.kb") + "/helper(0) = p\n")
    assert table.input_names() == ["c", "d"]
