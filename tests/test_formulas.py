"""Substitution and free variables."""

import random

from coli.formulas import All, Atom, Exists, Implies, free_vars, substitute
from coli.parser import parse_formula
from coli.terms import Const, Num, Var, app


def test_substitute_read_step():
    f = Exists("z", Atom("fact", (Var("y"), Var("z"))))
    assert substitute(f, "y", Num(3)) == Exists(
        "z", Atom("fact", (Num(3), Var("z"))))


def test_substitute_not_free():
    f = Atom("p", (Const("a"),))
    assert substitute(f, "x", Num(7)) == f


def test_substitute_shadowed_binder():
    f = All("x", Atom("p", (Var("x"),)))
    assert substitute(f, "x", Num(5)) == f


def test_substitute_avoids_capture():
    # substituting a term mentioning x under a binder of x renames the binder
    f = All("x", Atom("p", (Var("x"), Var("y"))))
    g = substitute(f, "y", Var("x"))
    assert isinstance(g, All)
    assert g.var != "x"
    assert g.body == Atom("p", (Var(g.var), Var("x")))


def test_substitution_composition_commutes():
    rng = random.Random(7)
    terms = [Num(0), Num(2), Const("a"), Const("b"), app("s", Num(1))]
    for _ in range(200):
        f = parse_formula("@w. p(x,y) /\\ q(w) \\/ r(x)",)
        t1, t2 = rng.choice(terms), rng.choice(terms)
        left = substitute(substitute(f, "x", t1), "y", t2)
        right = substitute(substitute(f, "y", t2), "x", t1)
        assert left == right


def test_free_vars():
    f = Implies(All("x", Atom("p", (Var("x"), Var("y")))), Atom("q", (Var("z"),)))
    assert free_vars(f) == {"y", "z"}
    # unbound lowercase names parse as constants, not variables
    assert free_vars(parse_formula("@x. p(x,y)")) == set()


