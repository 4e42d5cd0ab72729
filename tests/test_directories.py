"""Directory definitions, pattern clauses, and copy/shared expansion."""

import gc

import pytest

from coli import directories
from coli.directories import (DirectoryTable, define_directory, expand,
                              load_kb, match_pattern)
from coli.errors import DepthLimitError, ExpandError, KBError
from coli.formulas import And, Atom, DirRef, Neg, pretty
from coli.graphs import FormulaGraph, GNode
from coli.parser import parse_dirref, parse_formula
from coli.terms import Const, Num, Var, app

from conftest import data_text, graph_depth


def _table(text):
    return load_kb(text)


def test_define_simple():
    table = DirectoryTable()
    define_directory(table, "m", [(None, parse_formula("p(a)"))])
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


def test_clauses_added_one_line_at_a_time():
    table = _table("/m(0) = p\n/n = q\n/m(s(X)) = r\n")
    assert [c.pattern for c in table.defs["m"].clauses] == [Num(0), app("s", Var("X"))]
    assert table.defs["m"].clauses[1].params == ("X",)


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
    atoms = [nid for nid in copied.reachable()
             if copied.nodes[nid].op == "atom"]
    assert len(atoms) == 2 and atoms[0] != atoms[1]

    shared = expand(table, parse_dirref("/o"))
    atoms = [nid for nid in shared.reachable()
             if shared.nodes[nid].op == "atom"]
    assert len(atoms) == 1
    assert shared.in_degrees()[atoms[0]] == 2


def test_shared_references_to_distinct_terms_stay_apart():
    # a*(b+c) and a*b+c print alike, because the term grammar has no
    # parentheses, but they are different terms and get a node each
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
        for nid in graph.reachable():
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
    graph = FormulaGraph()
    nid = graph.add(GNode("atom", pred="p"))
    for _ in range(3000):
        nid = graph.add(GNode("neg", children=(nid,)))
    graph.root = nid
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
