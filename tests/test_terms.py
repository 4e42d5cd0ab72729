from coli.solver import eval_ground
from coli.terms import (App, Const, GVar, Num, Var, app, is_ground,
                        pretty_term, subst_const, subst_var, term_gvars,
                        term_vars)


def test_eval_ground_arithmetic():
    # 2*2+2 -> 6, the step that carries fact(2,2) to fact(3,6)
    t = app("+", app("*", Num(2), Num(2)), Num(2))
    assert eval_ground(t) == Num(6)


def test_eval_ground_successor_chain():
    assert eval_ground(app("s", app("s", Num(0)))) == Num(2)


def test_eval_ground_leaves_nonground_alone():
    t = app("+", GVar("W1"), Num(1))
    assert eval_ground(t) == t


def test_eval_ground_reduces_inner_subterms():
    t = app("f", app("+", Num(1), Num(2)), GVar("W1"))
    assert eval_ground(t) == app("f", Num(3), GVar("W1"))


def test_vars_and_gvars():
    t = app("f", Var("x"), app("g", GVar("W2"), Const("a")))
    assert term_vars(t) == {"x"}
    assert term_gvars(t) == {"W2"}
    assert not is_ground(t)
    assert is_ground(app("f", Num(1), Const("a")))


def test_substitutions():
    t = app("+", Var("x"), Var("y"))
    assert subst_var(t, "x", Num(3)) == app("+", Num(3), Var("y"))
    assert subst_const(app("f", Const("e")), "e", Num(1)) == app("f", Num(1))


def test_pretty_term_arithmetic():
    assert pretty_term(app("+", app("*", Var("x"), Var("y")), Var("y"))) == "x*y+y"
    assert pretty_term(app("+", Var("x"), Num(1))) == "x+1"
    assert pretty_term(app("s", app("s", Num(0)))) == "s(s(0))"
    assert pretty_term(app("fact", Num(3), GVar("W1"))) == "fact(3,W1)"


def test_pretty_term_prints_numerals_of_any_size():
    # str() refuses ints of more than 4,300 digits
    assert pretty_term(Num(10 ** 4300)) == "1" + "0" * 4300
    assert pretty_term(Num(10 ** 8001 + 5)) == "1" + "0" * 8000 + "5"
    assert pretty_term(Num(int("9" * 4300) + 1)) == "1" + "0" * 4300
    assert pretty_term(app("*", Num(7), Num(10 ** 4000))) == "7*1" + "0" * 4000
