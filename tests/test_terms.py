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
from coli.prover import (Bounds, EnvBranch, Leaf, ProveResult, Restriction,
                         Step)
from coli.scripts import (ChooseStmt, ExecuteStmt, ForStmt, IfStmt,
                          ListChannel, Outcome, ProveStmt, ReadStmt, Script,
                          ScriptEnv, WriteStmt)
from coli.solver import ClosureResult, _Inputs, eval_ground
from coli.terms import (App, Const, GVar, Num, Var, is_ground,
                        pretty_term, subst_const, subst_var, term_gvars,
                        term_vars)

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
    (lambda: Bounds(), "max_depth"), (lambda: Leaf(), "extra"),
    (lambda: Step(WriteMove(_P), Leaf()), "move"),
    (lambda: EnvBranch(_P, "n", "e0", Leaf()), "eigen"),
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
