"""Ground arithmetic, unification over global variables, and elementary closure.

Unification is the standard syntactic algorithm with an occurs check, except
that both sides are ground-evaluated before structural descent, so
``fact(3,W)`` unifies with ``fact(2+1, 2*2+2)`` by binding W to 6.  There is
no arithmetic constraint solving: ``W+1`` never unifies with ``3``.

Substitutions are triangular: a binding is stored once, as resolved when it
was made, and later bindings reach it through chains that are resolved on
demand, so binding k variables costs O(k) stored terms rather than O(k^2)
rewrites.  Closure applies the current substitution to its facts once per
search frame; a firing, which only extends that substitution, re-applies it
only to the facts that still hold variables.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from . import formulas as F
from .graphs import preorder
from .terms import ARITH_FNS, App, GVar, Num, Term, Var, pretty_term, term_gvars


def eval_ground(t: Term) -> Term:
    """Reduce every ground s/+/* subterm to a numeral; leave the rest alone."""
    if not isinstance(t, App):
        return t
    args = tuple(eval_ground(a) for a in t.args)
    if t.fn == "s" and len(args) == 1 and isinstance(args[0], Num):
        return Num(args[0].value + 1)
    if t.fn in ("+", "*") and len(args) == 2 \
            and isinstance(args[0], Num) and isinstance(args[1], Num):
        a, b = args[0].value, args[1].value
        return Num(a + b if t.fn == "+" else a * b)
    return App(t.fn, args)


class Substitution:
    """An idempotent mapping from global variables to terms, kept triangular.

    Each stored value is the bound term as resolved at the moment it was
    bound, so it mentions only variables that were unbound then; a later
    binding never rewrites it.  Resolving a variable follows its chain of
    stored values and ground-evaluates the result.  A substitution is never
    changed once built (bind returns a new one), so it memoises every value
    it resolves.  ``bindings`` is the fully resolved mapping, and
    apply(apply(t)) == apply(t) always holds.
    """

    def __init__(self, bindings=None):
        self._stored: dict[str, Term] = dict(bindings or {})
        self._resolved: dict[str, Term] = {}

    @property
    def bindings(self) -> dict[str, Term]:
        return {name: self._value(name) for name in self._stored}

    def _value(self, name: str) -> Term:
        value = self._resolved.get(name)
        if value is not None:
            return value
        # resolve the chain below name deepest first, on an explicit stack,
        # so that a long chain costs no interpreter frames
        stored, resolved = self._stored, self._resolved
        pending = [name]
        while pending:
            top = pending[-1]
            if top in resolved:
                pending.pop()
                continue
            below = [g for g in term_gvars(stored[top])
                     if g in stored and g not in resolved]
            if below:
                pending.extend(below)
            else:
                pending.pop()
                resolved[top] = eval_ground(self.apply(stored[top]))
        return resolved[name]

    def apply(self, t: Term) -> Term:
        if isinstance(t, GVar):
            return self._value(t.name) if t.name in self._stored else t
        if isinstance(t, App):
            return App(t.fn, tuple(self.apply(a) for a in t.args))
        return t

    def apply_formula(self, f: F.Formula) -> F.Formula:
        if isinstance(f, F.Atom):
            return F.Atom(f.pred, tuple(eval_ground(self.apply(t)) for t in f.args))
        kids = tuple(self.apply_formula(c) for c in F.children(f))
        return F.with_children(f, kids)

    def bind(self, name: str, t: Term):
        """Extended substitution with the unbound name -> t, or None on
        occurs failure."""
        value = eval_ground(self.apply(t))
        if isinstance(value, GVar) and value.name == name:
            return self
        if name in term_gvars(value):
            return None
        return Substitution({**self._stored, name: value})

    def __eq__(self, other):
        return isinstance(other, Substitution) and self.bindings == other.bindings

    def __len__(self):
        return len(self._stored)

    def __contains__(self, name):
        return name in self._stored

    def __getitem__(self, name):
        return self._value(name)

    def render(self) -> str:
        def key(name):
            return (0, int(name[1:])) if name[1:].isdigit() else (1, 0)
        items = sorted(self.bindings.items(), key=lambda kv: (key(kv[0]), kv[0]))
        inner = ",".join(f"{k}={pretty_term(v)}" for k, v in items)
        return "{" + inner + "}"


def unify(t1: Term, t2: Term, subst: Substitution | None = None):
    """Most general extension of subst equating t1 and t2, or None."""
    s = subst if subst is not None else Substitution()
    a = eval_ground(s.apply(t1))
    b = eval_ground(s.apply(t2))
    if a == b:
        return s
    if isinstance(a, GVar):
        return s.bind(a.name, b)
    if isinstance(b, GVar):
        return s.bind(b.name, a)
    if isinstance(a, App) and isinstance(b, App) \
            and a.fn == b.fn and len(a.args) == len(b.args):
        for x, y in zip(a.args, b.args):
            s = unify(x, y, s)
            if s is None:
                return None
        return s
    return None


def unify_atoms(a1: F.Atom, a2: F.Atom, subst: Substitution):
    if a1.pred != a2.pred or len(a1.args) != len(a2.args):
        return None
    s = subst
    for x, y in zip(a1.args, a2.args):
        s = unify(x, y, s)
        if s is None:
            return None
    return s


@dataclass
class ClosureResult:
    ok: bool
    subst: Substitution | None = None
    reason: str = ""
    output: F.Formula | None = None


@dataclass
class _Inputs:
    facts: list = field(default_factory=list)        # Atom
    rules: list = field(default_factory=list)        # (antecedent atoms, consequent atoms)


def _conjuncts(f: F.Formula) -> list:
    if isinstance(f, F.And):
        return _conjuncts(f.left) + _conjuncts(f.right)
    return [f]


def _decompose_input(f: F.Formula, acc: _Inputs):
    for part in _conjuncts(f):
        if isinstance(part, F.Atom):
            acc.facts.append(part)
        elif isinstance(part, F.Implies):
            ante = _conjuncts(part.left)
            cons = _conjuncts(part.right)
            if not all(isinstance(a, F.Atom) for a in ante + cons):
                raise _NotElementary(f"unsupported input shape: {F.pretty(part)}")
            acc.rules.append((tuple(ante), tuple(cons)))
        else:
            raise _NotElementary(f"input is not elementary: {F.pretty(part)}")


class _NotElementary(Exception):
    pass


def _check_output_elementary(f: F.Formula):
    if isinstance(f, (F.All, F.Exists, F.Recur)):
        raise _NotElementary(f"output is not elementary: {F.pretty(f)}")
    for c in F.children(f):
        _check_output_elementary(c)


def _interactive_blocker(cfg) -> str | None:
    """Cheap graph walk: the first quantifier or recurrence still in play,
    or None when the configuration is elementary up to global variables.
    Recurrence roots of input services are skipped; their replicas count."""
    def first_live(roots):
        for nid in preorder(cfg.nodes, roots):
            op = cfg.nodes[nid].op
            if op in ("all", "exists", "recur"):
                return op
        return None

    found = first_live(cfg.input_contents())
    if found:
        return f"input replica holds a live {found}"
    found = first_live([cfg.root_of(cfg.output)])
    if found:
        return f"output holds a live {found}"
    return None


def close_elementary(cfg) -> ClosureResult:
    """Try to win an elementary configuration by linear forward chaining.

    Facts are the input atoms; every input implication replica fires at most
    once, consuming a derived fact through its antecedent and deriving its
    ground-evaluated consequent.  The search backtracks over which facts feed
    which rules, and succeeds as soon as the output formula is classically
    satisfied by the derived facts (conjunction: all parts, disjunction: one
    part, atoms by unification).  Search states are memoized on structural
    keys: the multisets of facts and of unfired rules, and the output, all
    with the current substitution applied.

    A rule's own variables occur in no fact, not in the output and in no
    other rule; the rest are shared.  An unfired rule's own variables are
    unbound and occur nowhere else, so renaming them apart gives the rule a
    canonical form.  Two unfired rules with equal forms (replicas of one
    service, say) are twins: swapping them, and their own variables, maps
    the search state onto itself and each one's subtree onto the other's.
    So a twin fails whenever the first one tried does, and a frame fires
    only the first rule of each class, which leaves the first success, its
    substitution and the trace as they were.  The forms rename nothing but
    the rule's own variables: a shared variable bound to another rule's
    private one (X -> P) stays literal, because firing through it binds P.
    """
    blocker = _interactive_blocker(cfg)
    if blocker:
        return ClosureResult(False, reason=f"not elementary: {blocker}")
    acc = _Inputs()
    try:
        for root in cfg.input_contents():
            _decompose_input(cfg.formula_at(root), acc)
        out = cfg.formula_at(cfg.root_of(cfg.output))
        _check_output_elementary(out)
    except _NotElementary as exc:
        return ClosureResult(False, reason=str(exc))

    if not _possibly_coverable(out, acc):
        return ClosureResult(False, reason="no derivation covers the output")

    max_firings = len(acc.rules) + 8
    visited: set = set()
    # variables shared beyond a single rule: binding them can matter later,
    # so only firings that touch nothing shared are prunable as redundant
    per_rule: list = []
    for ante, cons in acc.rules:
        mine: set = set()
        for a in ante + cons:
            mine |= _formula_gvars(a)
        per_rule.append(mine)
    outside = _formula_gvars(out)
    for f in acc.facts:
        outside |= _formula_gvars(f)
    uses = Counter(g for mine in per_rule for g in mine)
    shared_gvars = {g for g, n in uses.items() if n > 1} | outside

    def sat(f: F.Formula, s: Substitution, facts):
        """Yield substitutions classically satisfying f against the facts."""
        if isinstance(f, F.Atom):
            for fact in facts:
                s2 = unify_atoms(f, fact, s)
                if s2 is not None:
                    yield s2
            return
        if isinstance(f, F.And):
            for s1 in sat(f.left, s, facts):
                yield from sat(f.right, s1, facts)
            return
        if isinstance(f, F.Or):
            yield from sat(f.left, s, facts)
            yield from sat(f.right, s, facts)
            return
        if isinstance(f, F.Implies):
            yield from sat(F.Or(F.Neg(f.left), f.right), s, facts)
            return
        if isinstance(f, F.Neg):
            # negation as absence: only decidable when the body is ground
            body = s.apply_formula(f.body)
            if _formula_gvars(body):
                return
            if next(sat(body, s, facts), None) is None:
                yield s
            return
        raise _NotElementary(f"output is not elementary: {F.pretty(f)}")

    own = [mine - shared_gvars for mine in per_rule]

    def canon_rule(ri, s):
        # rename the rule's own variables only, never a foreign one that a
        # shared variable is bound to
        mine, names = own[ri], {}

        def blind(t):
            if isinstance(t, GVar) and t.name in mine:
                if t.name not in names:
                    names[t.name] = f"_r{len(names)}"
                return GVar(names[t.name])
            if isinstance(t, App):
                return App(t.fn, tuple(blind(a) for a in t.args))
            return t

        ante, cons = acc.rules[ri]
        return tuple(F.Atom(atom.pred, tuple(blind(s.apply(t)) for t in atom.args))
                     for atom in ante + cons)

    # a rule with nothing shared has the same form under every substitution
    static = [None if per_rule[ri] & shared_gvars else canon_rule(ri, Substitution())
              for ri in range(len(acc.rules))]

    def classes(unfired, s):
        """The multiset of rule forms and the first position of each form."""
        counts: Counter = Counter()
        firsts = []
        for pos, ri in enumerate(unfired):
            form = static[ri]
            if form is None:
                form = canon_rule(ri, s)
            if form not in counts:
                firsts.append(pos)
            counts[form] += 1
        return frozenset(counts.items()), firsts

    def dfs(facts, unfired, s, fired):
        hit = next(sat(out, s, facts), None)
        if hit is not None:
            return hit
        applied = [s.apply_formula(a) for a in facts]
        forms, firsts = classes(unfired, s)
        key = (forms, _multiset(applied), s.apply_formula(out))
        if key in visited:
            return None
        visited.add(key)
        if fired >= max_firings:
            return None
        # every candidate firing extends s, which leaves ground facts as
        # they are: only the facts still holding variables need s2 applied
        ground = set()
        open_facts = []
        for a in applied:
            if _formula_gvars(a):
                open_facts.append(a)
            else:
                ground.add(a)
        # a later twin fails whenever the first one does (see above)
        for pos in firsts:
            ri = unfired[pos]
            ante, cons = acc.rules[ri]
            for s2 in _match_all(ante, facts, s):
                derived = [s2.apply_formula(c) for c in cons]
                fresh_bound = s2._stored.keys() - s._stored.keys()
                if not fresh_bound & shared_gvars:
                    seen = ground.union(s2.apply_formula(a) for a in open_facts)
                    if all(d in seen for d in derived):
                        continue  # re-derives known facts, binds nothing shared
                rest = unfired[:pos] + unfired[pos + 1:]
                found = dfs(facts + derived, rest, s2, fired + 1)
                if found is not None:
                    return found
        return None

    try:
        final = dfs(list(acc.facts), tuple(range(len(acc.rules))), Substitution(), 0)
    except _NotElementary as exc:
        return ClosureResult(False, reason=str(exc))
    if final is None:
        return ClosureResult(False, reason="no derivation covers the output")
    return ClosureResult(True, subst=final, output=final.apply_formula(out))


def _multiset(items) -> frozenset:
    """Hashable, order-blind and count-keeping: a memo key for a bag."""
    return frozenset(Counter(items).items())


def _match_all(atoms, facts, s):
    if not atoms:
        yield s
        return
    for fact in facts:
        s2 = unify_atoms(atoms[0], fact, s)
        if s2 is not None:
            yield from _match_all(atoms[1:], facts, s2)


def _possibly_coverable(out: F.Formula, acc: _Inputs) -> bool:
    """Cheap upper bound on satisfiability: every fact the chaining can ever
    derive instantiates a fact or rule-consequent template, so an output
    atom incompatible with all templates is dead.  Negations count as
    satisfiable (conservative)."""
    templates = list(acc.facts) + [c for _a, cons in acc.rules for c in cons]

    def rigid(t):
        if isinstance(t, (GVar, Var)):
            return False
        if isinstance(t, App):
            return all(rigid(a) for a in t.args)
        return True

    def compat(x, y):
        # may unify under SOME later bindings?  an arithmetic application
        # holding variables can become any numeral, but never a constant
        # or a user functor
        x, y = eval_ground(x), eval_ground(y)
        if isinstance(x, (GVar, Var)) or isinstance(y, (GVar, Var)):
            return True
        if isinstance(x, App) and isinstance(y, App):
            if x.fn in ARITH_FNS and y.fn in ARITH_FNS \
                    and (not rigid(x) or not rigid(y)):
                return True
            return (x.fn == y.fn and len(x.args) == len(y.args)
                    and all(compat(a, b) for a, b in zip(x.args, y.args)))
        if isinstance(y, App):
            x, y = y, x
        if isinstance(x, App):
            return (isinstance(y, Num) and x.fn in ARITH_FNS
                    and not rigid(x))
        return x == y

    def alive(atom):
        return any(atom.pred == t.pred and len(atom.args) == len(t.args)
                   and all(compat(a, b) for a, b in zip(atom.args, t.args))
                   for t in templates)

    def upper(f):
        if isinstance(f, F.Atom):
            return alive(f)
        if isinstance(f, F.And):
            return upper(f.left) and upper(f.right)
        if isinstance(f, F.Or):
            return upper(f.left) or upper(f.right)
        if isinstance(f, F.Implies):
            return True  # the negated side may hold
        if isinstance(f, F.Neg):
            return True
        return True

    return upper(out)


def _formula_gvars(f: F.Formula) -> set:
    if isinstance(f, F.Atom):
        out = set()
        for t in f.args:
            out |= term_gvars(t)
        return out
    out = set()
    for c in F.children(f):
        out |= _formula_gvars(c)
    return out
