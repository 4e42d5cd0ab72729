import copy
import os
import pickle
import random
import subprocess
import sys

import pytest

from coli.configuration import (MoveOption, Path, ReadMove, ReplicateMove,
                                WriteMove)
from coli.directories import Clause, DirectoryDef
from coli.formulas import (All, And, Atom, DirRef, Exists, Implies, Neg, Or,
                           Recur)
from coli.graphs import FormulaGraph, GNode
from coli.prover import Bounds, EnvBranch, ProveResult, Restriction
from coli.scripts import (ChooseStmt, ExecuteStmt, ForStmt, IfStmt,
                          ListChannel, Outcome, ProveStmt, ReadStmt, Script,
                          ScriptEnv, WriteStmt)
from coli.solver import (ClosureResult, Substitution, _Inputs, eval_ground,
                         unify)
from coli.terms import (App, Const, GVar, Num, Var, is_ground, leaves,
                        pretty_term, replace, subst_const, subst_gvar,
                        subst_var, term_gvars)

from conftest import SRC, app


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
    assert leaves(t) == [Var("x"), GVar("W2"), Const("a")]
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


def reference_pretty_term(t, prec=0):
    """The recursive printer that pretty_term replaced."""
    if isinstance(t, Num):
        return str(t.value)
    if isinstance(t, (Const, Var, GVar)):
        return t.name
    if t.fn in ("+", "*") and len(t.args) == 2:
        p = {"+": 1, "*": 2}[t.fn]
        text = (reference_pretty_term(t.args[0], p) + t.fn
                + reference_pretty_term(t.args[1], p + 1))
        return f"({text})" if p < prec else text
    return f"{t.fn}({','.join(reference_pretty_term(a) for a in t.args)})"


def _random_term(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return rng.choice([Num(rng.randrange(100)), Const("a"), Var("x"),
                           GVar("W1")])
    if roll < 0.65:
        return App(rng.choice("+*"), (_random_term(rng, depth - 1),
                                      _random_term(rng, depth - 1)))
    arity = rng.randrange(4)
    return App(rng.choice(["s", "f", "+", "*"]),
               tuple(_random_term(rng, depth - 1) for _ in range(arity)))


def test_pretty_term_matches_the_recursive_printer():
    rng = random.Random(17)
    for _ in range(400):
        t = _random_term(rng, rng.randrange(1, 7))
        for prec in (0, 1, 2, 3):
            assert pretty_term(t, prec) == reference_pretty_term(t, prec), t


def reference_eval_ground(t):
    """The recursive evaluator that eval_ground replaced."""
    if not isinstance(t, App):
        return t
    args = tuple(reference_eval_ground(a) for a in t.args)
    if t.fn == "s" and len(args) == 1 and isinstance(args[0], Num):
        return Num(args[0].value + 1)
    if t.fn in ("+", "*") and len(args) == 2 \
            and isinstance(args[0], Num) and isinstance(args[1], Num):
        a, b = args[0].value, args[1].value
        return Num(a + b if t.fn == "+" else a * b)
    return App(t.fn, args)


def test_eval_ground_matches_the_recursive_evaluator():
    rng = random.Random(18)
    for _ in range(600):
        t = _random_term(rng, rng.randrange(0, 7))
        assert eval_ground(t) == reference_eval_ground(t), t


def test_eval_ground_takes_no_frame_per_level(default_recursion_limit):
    # 1,000 nested s(...), chains of + and * nested 1,000 deep on either
    # side, and an s(...) chain over a variable, which stays as it is
    # (compared as text: equality of deep terms recurses)
    deep_s, left, right, product, open_s = (Num(0), Num(0), Num(0), Num(1),
                                            GVar("W1"))
    for _ in range(1000):
        deep_s = App("s", (deep_s,))
        left = App("+", (left, Num(1)))
        right = App("+", (Num(2), right))
        product = App("*", (Num(1), App("s", (product,))))
        open_s = App("s", (open_s,))
    assert eval_ground(deep_s) == Num(1000)
    assert eval_ground(left) == Num(1000)
    assert eval_ground(right) == Num(2000)
    assert eval_ground(product) == Num(1001)
    assert pretty_term(eval_ground(open_s)) == pretty_term(open_s)
    assert pretty_term(eval_ground(App("f", (left, open_s)))) \
        == f"f(1000,{pretty_term(open_s)})"


# --- the two walks, leaves and replace, against the recursive walkers ---

def reference_term_gvars(t):
    """The recursive walker that term_gvars replaced."""
    if isinstance(t, GVar):
        return {t.name}
    if isinstance(t, App):
        return set().union(*map(reference_term_gvars, t.args))
    return set()


def reference_is_ground(t):
    if isinstance(t, (Var, GVar)):
        return False
    return not isinstance(t, App) or all(map(reference_is_ground, t.args))


def reference_subst(t, cls, name, value):
    """The recursive subst_var, subst_gvar and subst_const, by class."""
    if isinstance(t, cls) and t.name == name:
        return value
    if isinstance(t, App):
        return App(t.fn, tuple(reference_subst(a, cls, name, value) for a in t.args))
    return t


def reference_apply(bindings, t):
    """The recursive Substitution.apply, over the resolved bindings."""
    if isinstance(t, GVar):
        return bindings.get(t.name, t)
    if isinstance(t, App):
        return App(t.fn, tuple(reference_apply(bindings, a) for a in t.args))
    return t


def reference_unify(t1, t2, s):
    """The recursive unify: argument pairs left to right, depth first."""
    a = reference_eval_ground(reference_apply(s.bindings, t1))
    b = reference_eval_ground(reference_apply(s.bindings, t2))
    if a == b:
        return s
    if isinstance(a, GVar):
        return s.bind(a.name, b)
    if isinstance(b, GVar):
        return s.bind(b.name, a)
    if isinstance(a, App) and isinstance(b, App) \
            and a.fn == b.fn and len(a.args) == len(b.args):
        for x, y in zip(a.args, b.args):
            s = reference_unify(x, y, s)
            if s is None:
                return None
        return s
    return None


_LEAVES = [Num(0), Num(1), Num(2), Const("a"), Const("b"), Var("x"), Var("y"),
           GVar("W1"), GVar("W2"), GVar("W3")]


def _walker_term(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(_LEAVES)
    fn = rng.choice(["s", "+", "*", "f"])
    arity = {"s": 1, "+": 2, "*": 2}.get(fn) or rng.randrange(4)
    return App(fn, tuple(_walker_term(rng, depth - 1) for _ in range(arity)))


def _perturbed(rng, t):
    """t with some subterms swapped for a variable or a fresh term, so that
    a pair of terms often, but not always, unifies."""
    roll = rng.random()
    if roll < 0.15:
        return GVar(rng.choice(["W1", "W2", "W3", "W4"]))
    if roll < 0.2:
        return _walker_term(rng, 2)
    if isinstance(t, App):
        return App(t.fn, tuple(_perturbed(rng, a) for a in t.args))
    return t


def _variable_term(rng, depth=2):
    """f or g over mostly variables, so that unifying two of them binds
    variables to variables, and the order of the bindings shows."""
    if depth == 0 or rng.random() < 0.4:
        return GVar(rng.choice(["W1", "W2", "W3", "W4"])) if rng.random() < 0.85 \
            else rng.choice(_LEAVES)
    return App(rng.choice("fg"), tuple(_variable_term(rng, depth - 1) for _ in range(3)))


def test_walks_match_the_recursive_walkers():
    rng = random.Random(24)
    for _ in range(600):
        t = _walker_term(rng, rng.randrange(0, 6))
        assert leaves(t) == [x for x in _preorder(t) if not isinstance(x, App)]
        assert term_gvars(t) == reference_term_gvars(t), t
        assert is_ground(t) == reference_is_ground(t), t
        value = _walker_term(rng, 2)
        for subst, cls, name in ((subst_var, Var, "x"), (subst_gvar, GVar, "W1"),
                                 (subst_const, Const, "a")):
            assert subst(t, name, value) == reference_subst(t, cls, name, value), t


def _preorder(t):
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, App):
            stack += reversed(t.args)


def test_substitution_and_unify_match_the_recursive_walkers():
    rng = random.Random(25)
    unified = 0
    for _ in range(600):
        s = Substitution()
        if rng.random() < 0.5:
            s = s.bind("W3", _walker_term(rng, 2)) or s
        roll = rng.random()
        if roll < 0.3:  # variables meeting variables: the order of the pairs shows
            t1, t2 = _variable_term(rng), _variable_term(rng)
        else:
            t1 = _walker_term(rng, rng.randrange(0, 6))
            t2 = _perturbed(rng, t1) if roll < 0.85 else _walker_term(rng, 4)
        assert s.apply(t1) == reference_apply(s.bindings, t1), t1
        got, want = unify(t1, t2, s), reference_unify(t1, t2, s)
        assert (got is None) == (want is None), (t1, t2)
        if got is not None:
            unified += 1
            assert got.render() == want.render(), (t1, t2)
            assert got.apply(t1) == reference_apply(got.bindings, t1)
    assert 100 < unified < 550  # both outcomes are well covered


def test_replace_keeps_what_it_does_not_change():
    rng = random.Random(26)
    for _ in range(300):
        t = _walker_term(rng, rng.randrange(0, 6))
        assert replace(t, Var, {}.get) is t
        assert replace(t, GVar, {"W9": Num(0)}.get) is t
    t = app("f", app("g", Const("a"), GVar("W1")), app("h", Const("b")), Num(3))
    new = subst_gvar(t, "W1", Num(7))
    assert new == app("f", app("g", Const("a"), Num(7)), app("h", Const("b")), Num(3))
    assert new.args[1] is t.args[1] and new.args[2] is t.args[2]
    assert new.args[0].args[0] is t.args[0].args[0]
    assert Substitution().bind("W2", Num(1)).apply(t) is t


def _chain(fn, n, bottom):
    for _ in range(n):
        bottom = App(fn, (bottom,))
    return bottom


def test_walks_take_no_frame_per_level(default_recursion_limit):
    # deep terms compare as text or through leaves: equality of two deep
    # applications still recurses
    n = 3000
    open_f, closed_f = _chain("f", n, GVar("W1")), _chain("f", n, Const("a"))
    assert leaves(open_f) == [GVar("W1")] and term_gvars(open_f) == {"W1"}
    assert not is_ground(open_f) and is_ground(closed_f)
    assert not is_ground(_chain("f", n, Var("x")))
    text = pretty_term(closed_f)
    assert pretty_term(subst_gvar(open_f, "W1", Const("a"))) == text
    assert pretty_term(subst_var(_chain("f", n, Var("x")), "x", Const("a"))) == text
    assert pretty_term(subst_const(closed_f, "a", GVar("W1"))) == pretty_term(open_f)
    assert subst_const(closed_f, "b", Num(0)) is closed_f
    s = Substitution().bind("W1", Const("a"))
    assert pretty_term(s.apply(open_f)) == text
    found = unify(open_f, closed_f)
    assert found is not None and found.render() == "{W1=a}"
    assert unify(open_f, _chain("f", n, app("g", GVar("W1")))) is None
    assert unify(closed_f, _chain("f", n, Const("b"))) is None
    assert unify(_chain("s", n, Num(0)), Num(n)).render() == "{}"
    # no arithmetic solving: s^n(W2) never unifies with a numeral
    assert unify(_chain("s", n, GVar("W2")), Num(n + 2)) is None
    assert unify(_chain("s", n, GVar("W2")), _chain("s", n, app("g", Num(2)))).render() \
        == "{W2=g(2)}"


def test_pretty_term_rejects_a_non_term():
    with pytest.raises(TypeError, match="not a term"):
        pretty_term(app("f", Num(1), "x"))


# the value classes: one factory per class, with a field to try to change
_A, _B = Atom("p", (Num(1),)), Atom("q")
_P = Path("d", (1, "i"))
FROZEN = [
    (lambda: Num(3), "value"), (lambda: Const("x"), "name"),
    (lambda: Var("x"), "name"), (lambda: GVar("W1"), "name"),
    (lambda: App("s", (Num(0),)), "args"), (lambda: Atom("p", (Num(1),)), "pred"),
    (lambda: Neg(_A), "body"), (lambda: And(_A, _B), "left"),
    (lambda: Or(_A, _B), "right"), (lambda: Implies(_A, _B), "left"),
    (lambda: All("x", _A), "var"), (lambda: Exists("x", _A), "body"),
    (lambda: Recur(_A), "body"), (lambda: DirRef("m", (Num(2),), True), "copy"),
    (lambda: GNode("atom", pred="p", args=(Num(1),)), "children"),
    (lambda: Path("d", (1, "i")), "segments"),
    (lambda: ReadMove(_P, 3, "n"), "value"), (lambda: WriteMove(_P, "W1"), "gvar"),
    (lambda: ReplicateMove(_P, 2), "index"),
    (lambda: MoveOption("replicate", _P, "input", 1), "side"),
    (lambda: Clause(None, _A), "body"), (lambda: DirectoryDef("c", 0, ()), "arity"),
    (lambda: Restriction(_P, ("read",), True), "rules"),
    (lambda: Bounds(), "max_depth"),
    (lambda: EnvBranch(_P, "n", "e0"), "eigen"),
    (lambda: ReadStmt(_P, "n"), "var"), (lambda: WriteStmt(_P), "path"),
    (lambda: ChooseStmt(((_P, ("read",)),), False), "prioritized"),
    (lambda: ForStmt("i", 1, "n", ()), "hi"),
    (lambda: IfStmt(("n", "<", 3), (), ()), "orelse"),
    (lambda: ProveStmt(), "extra"), (lambda: ExecuteStmt(), "extra"),
    (lambda: Script("a", (ProveStmt(),)), "name"),
]
MUTABLE = [
    (lambda: FormulaGraph({0: GNode("atom", pred="p")}, 0), "root", 1),
    (lambda: ProveResult(None, "bounded", 3), "steps", 4),
    (lambda: ScriptEnv(None), "trace_sink", print),
    (lambda: Outcome("won", steps=2), "reason", "x"),
    (lambda: ClosureResult(True, reason=""), "ok", False),
    (lambda: _Inputs([_A]), "facts", []),
]


def test_value_class_contract():
    assert Const("x") != Var("x") and Var("x") != GVar("x")
    assert And(_A, _B) != Or(_A, _B) and All("x", _A) != Exists("x", _A)
    assert Neg(_A) != Recur(_A)
    for make, field in FROZEN:
        one, two = make(), make()
        assert one == two and not one != two and hash(one) == hash(two)
        assert {one: 1}[two] == 1 and len({one, two}) == 1
        assert repr(one).startswith(type(one).__name__ + "(")
        assert copy.deepcopy(one) == one == pickle.loads(pickle.dumps(one))
        with pytest.raises(AttributeError):
            setattr(one, field, None)
        with pytest.raises(AttributeError):
            delattr(one, field)
        assert one == two
    for make, field, other in MUTABLE:
        one, two = make(), make()
        assert one == two
        with pytest.raises(TypeError):
            hash(one)
        assert copy.copy(one) == one == pickle.loads(pickle.dumps(one))
        setattr(two, field, other)
        assert one != two
    assert repr(App("s", (Num(0),))) == "App(fn='s', args=(Num(value=0),))"
    with pytest.raises(ValueError, match="naturals only"):
        Num(-1)


def test_value_class_defaults_and_keywords():
    node = GNode("atom")
    assert (node.op, node.children, node.pred, node.args, node.var,
            node.replicas) == ("atom", (), None, (), None, ())
    assert Path("d").segments == ()
    move = WriteMove(_P, term=Num(4))
    assert (move.path, move.gvar, move.term) == (_P, None, Num(4))
    assert Bounds(max_replicas=4) == Bounds(64, 4)
    assert Atom("p").args == () and DirRef("m") == DirRef("m", (), False)
    assert MoveOption("write", _P, "output", collapse=True).index is None
    env = ScriptEnv(ListChannel([]))
    assert (env.variables, env.restrictions, env.pending, env.bounds,
            env.trace_sink) == ({}, [], None, Bounds(), None)
    assert ScriptEnv(None).variables is not env.variables
    assert FormulaGraph().nodes == {} and FormulaGraph().root == -1
    assert _Inputs().facts == [] and _Inputs().rules == []


def test_value_instances_carry_no_dict():
    for make, *_ in FROZEN + MUTABLE:
        assert not hasattr(make(), "__dict__"), make()


def test_import_loads_neither_dataclasses_nor_inspect():
    # importing either costs a fresh interpreter about 15 ms of start-up;
    # -S keeps site-packages hooks from importing them first
    probe = "import sys, coli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
