"""Unification against a textbook oracle, and closure against exhaustive
enumeration of firing orders."""

import itertools
import random
from collections import Counter

from coli import solver
from coli.configuration import Path, apply_write, init_configuration
from coli.directories import DirectoryTable, define_directory
from coli.formulas import And, Atom, Implies, Neg, Or, pretty
from coli.parser import parse_formula
from coli.solver import Substitution, close_elementary, eval_ground, unify
from coli.terms import App, Const, GVar, Num, app, pretty_term, subst_gvar, term_gvars

from conftest import data_text, factorial, run_game
from coli.directories import load_kb


# --- unification: worked examples --------------------------------------

def test_unify_base_into_step():
    s = unify(app("fact", Num(0), Num(1)), app("fact", GVar("W2"), GVar("W3")))
    assert s is not None
    assert s["W2"] == Num(0) and s["W3"] == Num(1)


def test_unify_occurs_check():
    assert unify(GVar("W1"), app("f", GVar("W1"))) is None


def test_unify_evaluates_before_matching():
    # oracle: 3! carried by hand -- fact(3,6)
    s = unify(app("fact", Num(3), GVar("W1")),
              app("fact", app("+", Num(2), Num(1)),
                  app("+", app("*", Num(2), Num(2)), Num(2))))
    assert s is not None and s["W1"] == Num(6)


def test_unify_no_arithmetic_inversion():
    assert unify(app("+", GVar("W1"), Num(1)), Num(3)) is None
    assert unify(app("s", GVar("W1")), Num(3)) is None


def test_unify_identity_on_ground():
    for text in ("fact(0,1)", "s(s(0))", "f(a,b)"):
        t = _parse_ground(text)
        s = unify(t, t)
        assert s is not None and len(s) == 0


def _parse_ground(text):
    from coli.parser import parse_term
    return parse_term(text)


def test_substitution_idempotent_and_acyclic():
    s = Substitution()
    s = s.bind("W1", app("f", GVar("W2")))
    s = s.bind("W2", Const("a"))
    t = app("g", GVar("W1"), GVar("W2"))
    once = s.apply(t)
    assert s.apply(once) == once
    assert once == app("g", app("f", Const("a")), Const("a"))
    assert s.bind("W3", app("f", GVar("W3"))) is None


# --- substitution: triangular store against an eagerly rewritten one ----

class EagerSubstitution:
    """Reference: every stored value is kept fully applied, so each new
    binding rewrites all earlier values."""

    def __init__(self, bindings=None):
        self.bindings = dict(bindings or {})

    def apply(self, t):
        if isinstance(t, GVar):
            return self.bindings.get(t.name, t)
        if isinstance(t, App):
            return App(t.fn, tuple(self.apply(a) for a in t.args))
        return t

    def bind(self, name, t):
        value = eval_ground(self.apply(t))
        if isinstance(value, GVar) and value.name == name:
            return self
        if name in term_gvars(value):
            return None
        updated = {k: eval_ground(subst_gvar(v, name, value))
                   for k, v in self.bindings.items()}
        updated[name] = value
        return EagerSubstitution(updated)

    def render(self):
        items = sorted(self.bindings.items(), key=lambda kv: int(kv[0][1:]))
        return "{" + ",".join(f"{k}={pretty_term(v)}" for k, v in items) + "}"


def eager_unify(t1, t2, s):
    a, b = eval_ground(s.apply(t1)), eval_ground(s.apply(t2))
    if a == b:
        return s
    if isinstance(a, GVar):
        return s.bind(a.name, b)
    if isinstance(b, GVar):
        return s.bind(b.name, a)
    if isinstance(a, App) and isinstance(b, App) \
            and a.fn == b.fn and len(a.args) == len(b.args):
        for x, y in zip(a.args, b.args):
            s = eager_unify(x, y, s)
            if s is None:
                return None
        return s
    return None


_SUBST_NAMES = [f"W{i}" for i in range(1, 9)]


def _arith_term(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return rng.choice([Const("a"), Num(rng.randrange(4))]
                          + [GVar(n) for n in _SUBST_NAMES])
    if roll < 0.45:
        return app("s", _arith_term(rng, depth - 1))
    if roll < 0.6:
        return app("f", _arith_term(rng, depth - 1))
    fn = rng.choice(["+", "*", "g"])
    return app(fn, _arith_term(rng, depth - 1), _arith_term(rng, depth - 1))


def test_substitution_matches_eager_reference():
    rng = random.Random(515151)
    occurs_failures = steps = 0
    for _ in range(400):
        mine, ref = Substitution(), EagerSubstitution()
        for _ in range(rng.randrange(1, 10)):
            if rng.random() < 0.5:
                free = [n for n in _SUBST_NAMES if n not in ref.bindings]
                if not free:
                    break
                name, t = rng.choice(free), _arith_term(rng, rng.randrange(3))
                got, want = mine.bind(name, t), ref.bind(name, t)
            else:
                t1 = _arith_term(rng, rng.randrange(4))
                t2 = _arith_term(rng, rng.randrange(4))
                got, want = unify(t1, t2, mine), eager_unify(t1, t2, ref)
            assert (got is None) == (want is None)
            if got is None:
                occurs_failures += 1
                continue
            mine, ref = got, want
            steps += 1
            assert mine.bindings == ref.bindings
            assert mine.render() == ref.render()
            assert mine == Substitution(ref.bindings)
            assert len(mine) == len(ref.bindings)
            for _ in range(3):
                t = _arith_term(rng, 3)
                once = mine.apply(t)
                assert once == ref.apply(t)
                assert mine.apply(once) == once
    assert occurs_failures > 50 and steps > 500


# --- unification: fuzz against a textbook oracle ------------------------

def oracle_unify(t1, t2):
    """Plain Robinson unification over the fuzz signature; independent of
    the implementation under test (no ground evaluation, eager elimination)."""
    def occurs(v, t, s):
        t = walk(t, s)
        if isinstance(t, GVar):
            return t.name == v
        if isinstance(t, App):
            return any(occurs(v, a, s) for a in t.args)
        return False

    def walk(t, s):
        while isinstance(t, GVar) and t.name in s:
            t = s[t.name]
        return t

    def go(a, b, s):
        a, b = walk(a, s), walk(b, s)
        if a == b:
            return s
        if isinstance(a, GVar):
            if occurs(a.name, b, s):
                return None
            return {**s, a.name: b}
        if isinstance(b, GVar):
            return go(b, a, s)
        if isinstance(a, App) and isinstance(b, App) \
                and a.fn == b.fn and len(a.args) == len(b.args):
            for x, y in zip(a.args, b.args):
                s = go(x, y, s)
                if s is None:
                    return None
            return s
        return None

    return go(t1, t2, {})


def _fuzz_term(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return rng.choice([Const("a"), Const("b"), Const("c"),
                           GVar("W1"), GVar("W2"), GVar("W3"), GVar("W4")])
    if roll < 0.6:
        return app("f", _fuzz_term(rng, depth - 1))
    return app("g", _fuzz_term(rng, depth - 1), _fuzz_term(rng, depth - 1))


def _alpha_equal(t, u, mapping):
    if isinstance(t, GVar) and isinstance(u, GVar):
        if t.name in mapping:
            return mapping[t.name] == u.name
        if u.name in mapping.values():
            return False
        mapping[t.name] = u.name
        return True
    if isinstance(t, App) and isinstance(u, App):
        return (t.fn == u.fn and len(t.args) == len(u.args)
                and all(_alpha_equal(a, b, mapping)
                        for a, b in zip(t.args, u.args)))
    return t == u


def test_unify_fuzz_against_oracle():
    rng = random.Random(424242)
    disagreements = 0
    for _ in range(1000):
        t1 = _fuzz_term(rng, rng.randrange(4))
        t2 = _fuzz_term(rng, rng.randrange(4))
        mine = unify(t1, t2)
        theirs = oracle_unify(t1, t2)
        assert (mine is None) == (theirs is None), (t1, t2)
        if mine is None:
            disagreements += 0
            continue
        # the result really unifies the pair
        assert mine.apply(t1) == mine.apply(t2)
        # and is most general: equal to the oracle's mgu up to renaming
        def resolve(t, s=theirs):
            if isinstance(t, GVar) and t.name in s:
                return resolve(s[t.name])
            if isinstance(t, App):
                return App(t.fn, tuple(resolve(a) for a in t.args))
            return t
        assert _alpha_equal(mine.apply(t1), resolve(t1), {})
    assert disagreements == 0


# --- closure: worked examples -------------------------------------------

def test_close_factorial_three(fact_table):
    outcome, cfg, _ = run_game("fact.kb", "fact.coli", [3])
    assert outcome.won
    assert pretty(outcome.result) == "fact(3,6)"
    assert outcome.subst["W7"] == Num(6)


def test_close_factorial_sixty_by_script():
    # each /d.i writes x = i-1 (W(2i-1)) and y = (i-1)! (W(2i)); the query
    # writes z = 60! (W121)
    n = 60
    outcome, _, _ = run_game("fact.kb", "fact.coli", [n])
    assert outcome.won
    assert outcome.result == Atom("fact", (Num(n), Num(factorial(n))))
    want = {}
    for i in range(1, n + 1):
        want[f"W{2 * i - 1}"] = Num(i - 1)
        want[f"W{2 * i}"] = Num(factorial(i - 1))
    want[f"W{2 * n + 1}"] = Num(factorial(n))
    assert outcome.subst.bindings == want


def test_close_zero_case():
    table = load_kb(data_text("fact.kb"))
    cfg = init_configuration(table)
    from coli.configuration import apply_read
    cfg = apply_read(cfg, Path("query"), 0, "n")
    cfg = apply_write(cfg, Path("query"))
    result = close_elementary(cfg)
    assert result.ok
    assert result.subst["W1"] == Num(1)
    assert pretty(result.output) == "fact(0,1)"


def test_close_underivable_disjunction():
    table = load_kb("/query = p(t) \\/ q(a)\nquery /query\n")
    result = close_elementary(init_configuration(table))
    assert not result.ok


def test_close_needs_elementary():
    table = load_kb(data_text("fact.kb"))
    result = close_elementary(init_configuration(table))
    assert not result.ok and "not elementary" in result.reason


def test_close_each_replica_fires_once():
    # two copies are not enough to reach fact(3,_)
    table = load_kb(data_text("fact.kb"))
    cfg = init_configuration(table)
    from coli.configuration import apply_read
    cfg = apply_read(cfg, Path("query"), 3, "n")
    for i in (1, 2):
        cfg = apply_write(cfg, Path("d", (i,)))
        cfg = apply_write(cfg, Path("d", (i,)))
    cfg = apply_write(cfg, Path("query"))
    assert not close_elementary(cfg).ok


def _closed(kb_text):
    from coli.configuration import legal_moves
    table = load_kb(kb_text)
    cfg = init_configuration(table)
    for opt in legal_moves(cfg):
        if opt.kind == "write":
            cfg = apply_write(cfg, opt.path)
    return close_elementary(cfg)


def test_close_arithmetic_output_argument():
    # the written variable feeds an arithmetic term on the output side
    result = _closed("/f = q(3) /\\ p(4)\n"
                     "/query = #y. (q(y) /\\ p(y+1))\nquery /query\n")
    assert result.ok
    assert pretty(result.output) == "q(3) /\\ p(4)"


def test_close_constant_never_matches_arithmetic():
    # p(a) cannot come out of a rule that only produces numerals
    result = _closed("/f = q(0) /\\ (q(0) -> p(0+1))\n"
                     "/query = p(a)\nquery /query\n")
    assert not result.ok


def test_close_rigid_symbol_missing_from_inputs():
    result = _closed("/f = fact(0,1) /\\ (fact(0,1) -> fact(1,1))\n"
                     "/query = fact(e,1)\nquery /query\n")
    assert not result.ok


# --- closure: exhaustive oracle ------------------------------------------

def oracle_close(facts, rules, output):
    """Every ground output reachable by firing each rule at most once, in
    any order, against any matching facts.  Brute force by enumeration."""
    results = set()

    def sat(f, s, facts):
        if isinstance(f, Atom):
            for fact in facts:
                s2 = unify_atoms_oracle(f, fact, s)
                if s2 is not None:
                    yield s2
        elif isinstance(f, And):
            for s1 in sat(f.left, s, facts):
                yield from sat(f.right, s1, facts)
        elif isinstance(f, Or):
            yield from sat(f.left, s, facts)
            yield from sat(f.right, s, facts)
        else:
            raise AssertionError(f)

    def unify_atoms_oracle(a, b, s):
        if a.pred != b.pred or len(a.args) != len(b.args):
            return None
        for x, y in zip(a.args, b.args):
            s = unify(x, y, s)
            if s is None:
                return None
        return s

    def note(facts, s):
        for s2 in sat(output, s, facts):
            results.add(pretty(s2.apply_formula(output)))

    seen = set()

    def rec(facts, remaining, s):
        # a state reached twice is enumerated once; states compare exactly,
        # with no renaming of variables
        state = (frozenset(Counter(facts).items()), tuple(remaining),
                 frozenset(s.bindings.items()))
        if state in seen:
            return
        seen.add(state)
        note(facts, s)
        for i, (ante, cons) in enumerate(remaining):
            for fact in facts:
                s2 = unify_atoms_oracle(ante, fact, s)
                if s2 is None:
                    continue
                derived = Atom(cons.pred,
                               tuple(eval_ground(s2.apply(t)) for t in cons.args))
                rec(facts + [derived], remaining[:i] + remaining[i + 1:], s2)

    rec(list(facts), list(rules), Substitution())
    return results


def _random_atom(rng, preds, consts, gvars=()):
    pred, arity = rng.choice(preds)
    pool = [Const(c) for c in consts] + [Num(rng.randrange(3))]
    pool += [GVar(g) for g in gvars]
    return Atom(pred, tuple(rng.choice(pool) for _ in range(arity)))


def _kb_config(facts, rules, output):
    """A configuration whose one input service holds the facts and rules."""
    table = DirectoryTable()
    kb = facts[0]
    for f in facts[1:]:
        kb = And(kb, f)
    for ante, cons in rules:
        kb = And(kb, Implies(ante, cons))
    define_directory(table, "kb", [(None, kb)])
    define_directory(table, "query", [(None, output)])
    table.query = "query"
    return init_configuration(table, input_names=["kb"])


def test_close_matches_exhaustive_oracle():
    rng = random.Random(11)
    preds = [("p", 1), ("q", 1), ("r", 2)]
    consts = ["a", "b", "c"]
    checked_ok = 0
    for trial in range(160):
        n_facts = rng.randrange(1, 4)
        n_rules = rng.randrange(0, 3)  # at most 2 implications
        facts = [_random_atom(rng, preds, consts) for _ in range(n_facts)]
        rules = [(_random_atom(rng, preds, consts),
                  _random_atom(rng, preds, consts)) for _ in range(n_rules)]
        # bias half the outputs toward something actually derivable
        derivable = facts + [cons for _a, cons in rules]
        out_atoms = [rng.choice(derivable) if rng.random() < 0.5
                     else _random_atom(rng, preds, consts) for _ in range(2)]
        output = rng.choice([out_atoms[0],
                             And(out_atoms[0], out_atoms[1]),
                             Or(out_atoms[0], out_atoms[1])])

        mine = close_elementary(_kb_config(facts, rules, output))
        expected = oracle_close(facts, rules, output)
        assert mine.ok == bool(expected), (trial, facts, rules, output)
        if mine.ok:
            assert pretty(mine.output) in expected
            checked_ok += 1
    assert checked_ok > 20  # the generator really produces closable cases


def test_close_with_written_output_matches_oracle():
    # outputs containing machine-written global variables: bindings must
    # come out ground and agree with some enumerated derivation
    rng = random.Random(12)
    preds = [("p", 1), ("q", 1), ("r", 2)]
    consts = ["a", "b"]
    wins = 0
    for trial in range(120):
        facts = [_random_atom(rng, preds, consts)
                 for _ in range(rng.randrange(1, 3))]
        rules = [(_random_atom(rng, preds, consts),
                  _random_atom(rng, preds, consts))
                 for _ in range(rng.randrange(0, 3))]
        pred, arity = rng.choice(preds)
        body = Atom(pred, tuple(rng.choice([Const(consts[0]), Num(1)])
                                for _ in range(arity)))
        # quantify one argument position when there is one
        out = body
        if arity:
            from coli.formulas import Exists
            from coli.terms import Var
            args = list(body.args)
            args[0] = Var("v")
            out = Exists("v", Atom(pred, tuple(args)))

        cfg = _kb_config(facts, rules, out)
        if arity:
            cfg = apply_write(cfg, Path("query"))

        mine = close_elementary(cfg)
        goal = cfg.formula_at(cfg.root_of("query"))
        expected = oracle_close(facts, rules, goal)
        assert mine.ok == bool(expected), (trial, facts, rules, goal)
        if mine.ok:
            wins += 1
            assert pretty(mine.output) in expected
    assert wins > 10


# --- closure: interchangeable rules --------------------------------------

def test_close_twins_keep_foreign_private_variables():
    # once f(X) -> g(a) fires on f(P), the rule g(X) -> h(a) reads g(P),
    # and P belongs to k(c) -> f(P): it is no twin of g(Q) -> h(a), whose
    # firing leaves P free to become b
    P, X, Q = GVar("P"), GVar("X"), GVar("Q")
    a, b, c = Const("a"), Const("b"), Const("c")
    facts = [Atom("k", (c,))]
    rules = [(Atom("k", (c,)), Atom("f", (P,))),
             (Atom("f", (X,)), Atom("g", (a,))),
             (Atom("g", (X,)), Atom("h", (a,))),
             (Atom("g", (Q,)), Atom("h", (a,)))]
    output = And(Atom("f", (b,)), Atom("h", (a,)))
    assert oracle_close(facts, rules, output) == {"f(b) /\\ h(a)"}
    result = close_elementary(_kb_config(facts, rules, output))
    assert result.ok and pretty(result.output) == "f(b) /\\ h(a)"


def test_close_memo_tells_output_bindings_apart():
    # q(Y) -> t fired on q(1) or on q(2) leaves the same facts and rules,
    # but only Y = 2 lets p(Y) /\ u hold once t -> u fires
    Y = GVar("Y")
    facts = [Atom("q", (Num(1),)), Atom("q", (Num(2),)), Atom("p", (Num(2),))]
    rules = [(Atom("q", (Y,)), Atom("t", ())), (Atom("t", ()), Atom("u", ()))]
    output = And(Atom("p", (Y,)), Atom("u", ()))
    assert oracle_close(facts, rules, output) == {"p(2) /\\ u"}
    result = close_elementary(_kb_config(facts, rules, output))
    assert result.ok and pretty(result.output) == "p(2) /\\ u"


def test_close_binds_a_variable_no_rule_holds():
    # W1 occurs in a fact and in the output but in no rule; the firing that
    # re-derives p(a) binds it to a, after which ~s(a) holds
    W1 = GVar("W1")
    facts = [Atom("p", (W1,))]
    rules = [(Atom("p", (Const("a"),)), Atom("p", (Const("a"),)))]
    output = Neg(Atom("s", (W1,)))
    result = close_elementary(_kb_config(facts, rules, output))
    assert result.ok, result.reason
    assert result.subst.bindings == {"W1": Const("a")}


def _count_unify_atoms(monkeypatch):
    calls = [0]
    real = solver.unify_atoms

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(solver, "unify_atoms", counting)
    return calls


def test_close_fires_one_replica_per_class(monkeypatch):
    # the replicas of /d are interchangeable: firing every one of them,
    # to be stopped by the memo, took 2,637 unifications here
    calls = _count_unify_atoms(monkeypatch)
    outcome, _, _ = run_game("fact.kb", "fact_short.coli", [12])
    assert outcome.won and outcome.steps == 181
    assert calls[0] <= 1100


def test_close_winning_chain_costs_the_same(monkeypatch):
    # the first replica tried already wins, so no twin is ever skipped
    calls = _count_unify_atoms(monkeypatch)
    outcome, _, _ = run_game("fact.kb", "fact.coli", [60])
    assert outcome.won
    assert calls[0] == 3721


def _renamed(atom, names):
    return Atom(atom.pred, tuple(GVar(names.get(t.name, t.name))
                                 if isinstance(t, GVar) else t
                                 for t in atom.args))


def test_close_with_twin_rules_matches_oracle():
    # rules mix constants, shared variables and private ones of their own,
    # and each antecedent reads a predicate that a fact or an earlier
    # consequent holds.  Every case gets twins, copies with fresh private
    # variables; half of them also get fresh variables for the shared ones,
    # which makes them look alike without being interchangeable.  The rules
    # come in shuffled order.
    rng = random.Random(13)
    preds = ["p", "q", "r", "s"]
    consts = [Const("a"), Const("b")]
    shared = [GVar("X"), GVar("Y")]
    wins = losses = 0
    for trial in range(600):
        facts = [Atom(rng.choice(preds), (rng.choice(consts),))
                 for _ in range(rng.randrange(1, 3))]
        live = [f.pred for f in facts]
        rules = []
        for i in range(rng.randrange(2, 4)):
            P, Q = GVar(f"P{i}"), GVar(f"Q{i}")
            ante = Atom(rng.choice(live), (rng.choice(shared + [P] + consts),))
            cons = Atom(rng.choice(preds),
                        (rng.choice(shared + [P, Q, Q] + consts),))
            live.append(cons.pred)
            rules.append((ante, cons))
        originals = list(rules)
        for k in range(rng.choice([1, 1, 2])):
            ante, cons = rng.choice(originals)
            names = {f"{v}{i}": f"{v}{i}t{k}" for v in "PQ" for i in range(3)}
            if rng.random() < 0.5:
                names.update({v.name: f"{v.name}t{k}" for v in shared})
            rules.append((_renamed(ante, names), _renamed(cons, names)))
        rng.shuffle(rules)
        outs = [Atom(rng.choice(live), (rng.choice(shared + consts),))
                for _ in range(2)]
        output = rng.choice([outs[0], And(*outs), Or(*outs)])

        mine = close_elementary(_kb_config(facts, rules, output))
        expected = oracle_close(facts, rules, output)
        assert mine.ok == bool(expected), (trial, facts, rules, output)
        if mine.ok:
            wins += 1
            assert pretty(mine.output) in expected
        else:
            losses += 1
    assert wins > 100 and losses > 50
