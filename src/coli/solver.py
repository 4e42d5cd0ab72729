"""Unification over global variables, and elementary closure.

Unification is the standard syntactic algorithm with an occurs check, except
that both sides are ground-evaluated (``terms.eval_ground``) before
structural descent, so ``fact(3,W)`` unifies with ``fact(2+1, 2*2+2)`` by
binding W to 6.  There is no arithmetic constraint solving: ``W+1`` never
unifies with ``3``.  Closure ground-evaluates the facts and the output's
atoms once per call, so a deep ground argument such as ``s(s(...(0)))`` is
reduced once, not at each unification.

Substitutions are triangular: a binding is stored once, as resolved when it
was made, and later bindings reach it through chains that are resolved on
demand, so binding k variables costs O(k) stored terms rather than O(k^2)
rewrites.  A closure frame re-applies the substitution only to the atoms
holding a variable that the firing before it bound.  Closure also skips work
whose outcome it already knows: a pair of output atom and fact that failed
to unify is not tried again in the call, and a firing that only re-derived
known facts is not tried again below the frame that found it.

``Substitution.apply_formula`` and ``_satisfiable`` walk by ``formulas.fold``.
"""

from __future__ import annotations

from collections import Counter

from . import formulas as F
from .graphs import preorder
from .records import Record
from .terms import App, GVar, Term, eval_ground, pretty_term, replace, term_gvars


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

    def _value(self, name: str) -> Term | None:
        """name's resolved value, or None when name is unbound."""
        value = self._resolved.get(name)
        if value is not None or name not in self._stored:
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
        if t.__class__ is not App:
            value = self._value(t.name) if t.__class__ is GVar else None
            return t if value is None else value
        return replace(t, GVar, self._value)

    def apply_formula(self, f: F.Formula) -> F.Formula:
        return F.fold(f, F.children, self._apply_node)

    def _apply_node(self, g: F.Formula, kids: tuple) -> F.Formula:
        if g.__class__ is F.Atom:
            return F.Atom(g.pred, tuple(eval_ground(self.apply(t)) for t in g.args))
        return F.with_children(g, kids)

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

    def __getitem__(self, name):
        if name not in self._stored:
            raise KeyError(name)
        return self._value(name)

    def render(self) -> str:
        def key(name):
            return (0, int(name[1:])) if name[1:].isdigit() else (1, 0)
        items = sorted(self.bindings.items(), key=lambda kv: (key(kv[0]), kv[0]))
        inner = ",".join(f"{k}={pretty_term(v)}" for k, v in items)
        return "{" + inner + "}"


def unify(t1: Term, t2: Term, subst: Substitution | None = None):
    """Most general extension of subst equating t1 and t2, or None.

    Argument pairs are unified left to right, depth first, from an explicit
    stack, so a term's depth costs no frames.  Each pair is kept with the
    substitution it was resolved under, and is resolved again only when a
    binding has been made since."""
    s = subst if subst is not None else Substitution()
    a, b, pairs = eval_ground(s.apply(t1)), eval_ground(s.apply(t2)), []
    while True:
        if a is b:
            pass
        elif a.__class__ is GVar and a != b:
            s = s.bind(a.name, b)
        elif b.__class__ is GVar and a != b:
            s = s.bind(b.name, a)
        elif a.__class__ is App and b.__class__ is App:
            if a.fn != b.fn or len(a.args) != len(b.args):
                return None
            pairs += reversed([(x, y, s) for x, y in zip(a.args, b.args)])
        elif a != b:  # at most one side is an application here
            return None
        if s is None or not pairs:
            return s
        a, b, under = pairs.pop()
        if under is not s:
            a, b = eval_ground(s.apply(a)), eval_ground(s.apply(b))


def unify_atoms(a1: F.Atom, a2: F.Atom, subst: Substitution):
    """Extension of subst equating the atoms, or None.  Either side may be
    anything with .pred and .args, such as an atom node."""
    if a1.pred != a2.pred or len(a1.args) != len(a2.args):
        return None
    s = subst
    for x, y in zip(a1.args, a2.args):
        s = unify(x, y, s)
        if s is None:
            return None
    return s


class ClosureResult(Record):
    __slots__ = ("ok", "subst", "reason", "output")

    def __init__(self, ok: bool, subst: Substitution | None = None, reason: str = "",
                 output: F.Formula | None = None):
        self._setfields(ok, subst, reason, output)


class _Inputs(Record):
    __slots__ = ("facts", "rules")  # atoms; (antecedent atoms, consequent atoms)

    def __init__(self, facts: list | None = None, rules: list | None = None):
        self._setfields([] if facts is None else facts, [] if rules is None else rules)


def _conjuncts(nodes: dict, nid: int):
    """Ids of the parts of the conjunction at nid, left to right."""
    stack = [nid]
    while stack:
        top = stack.pop()
        node = nodes[top]
        if node.op == "and":
            stack.extend(reversed(node.children))
        else:
            yield top


def _atom(node) -> F.Atom:
    return F.Atom(node.pred, node.args)


def _evaluated(node) -> F.Atom:
    """The atom node as an atom, its arguments ground-evaluated, so that
    each `unify` on it finds its arithmetic already reduced.  Facts and
    the output's atoms are built this way; a rule's arguments hold the
    variables of its writes, so evaluating them would mostly copy terms."""
    return F.Atom(node.pred, tuple(map(eval_ground, node.args)))


def _decompose_input(cfg, root: int, acc: _Inputs) -> str | None:
    """Add the facts and rules of the input conjunction at root to acc, or
    return the reason why its first other part is not elementary."""
    nodes = cfg.nodes
    for part in _conjuncts(nodes, root):
        node = nodes[part]
        if node.op == "atom":
            acc.facts.append(_evaluated(node))
        elif node.op == "implies":
            ante = [nodes[c] for c in _conjuncts(nodes, node.children[0])]
            cons = [nodes[c] for c in _conjuncts(nodes, node.children[1])]
            if any(n.op != "atom" for n in ante + cons):
                return f"unsupported input shape: {F.pretty(cfg.formula_at(part))}"
            acc.rules.append((tuple(map(_atom, ante)), tuple(map(_atom, cons))))
        else:
            return f"input is not elementary: {F.pretty(cfg.formula_at(part))}"
    return None


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
    part, atoms by unification).  Search states are memoized on the ids,
    from the call's intern table, of the facts and unfired rules' forms
    (below), as multisets, and of the output's atoms in preorder, all under
    the current substitution.  Closure reads the configuration's nodes; it
    builds a formula tree only for the reason of a shape error and for the
    output of a win.

    A frame receives the facts and the output's atoms under its
    substitution; a firing only extends it, so the child re-applies it only
    to the atoms holding a variable the firing bound.  As `unify` applies
    the substitution first, applied facts give the same unifiers in order.

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

    Two tables, keyed on the intern table's ids, skip candidates whose
    outcome is known, so the order of candidates and the first success
    stay as they were:

    - Failed pairs, for the whole call.  Whether an output atom unifies
      with a fact depends only on the two atoms under the substitution, so
      a pair of their ids that failed once is not tried again.  The key is
      the atom under the substitution, not its node: p(W+1) fails against
      p(3) while W is open and holds once W = 2.  Successes are not kept,
      because their unifier depends on the substitution, and the ids are
      known only while `sat` runs under the frame's own substitution.
    - Redundant firings, for the current path.  A firing that re-derives
      known facts and binds nothing shared is skipped; its key is the rule's
      form and the ids of the facts it matched.  Below that frame the facts
      are only added to or re-applied, and the same form matched against
      the same facts derives the same atoms, which stay known, and binds
      the same variables, none shared.  So the key stays redundant there
      and `_match_all` does not try it.  A sibling branch may lack the
      derived facts, so each frame hands its set only to its own subtree.
    """
    blocker = _interactive_blocker(cfg)
    if blocker:
        return ClosureResult(False, reason=f"not elementary: {blocker}")
    acc = _Inputs()
    for root in cfg.input_contents():
        reason = _decompose_input(cfg, root, acc)
        if reason:
            return ClosureResult(False, reason=reason)
    nodes, out = cfg.nodes, cfg.root_of(cfg.output)
    if not _possibly_coverable(nodes, out, acc):
        return ClosureResult(False, reason="no derivation covers the output")

    visited: set = set()
    # variables shared beyond a single rule: binding them can matter later,
    # so only firings that touch nothing shared are prunable as redundant
    per_rule = [set().union(*map(_formula_gvars, ante + cons))
                for ante, cons in acc.rules]
    # the output's atoms in preorder: its connectives are fixed, so these
    # atoms under a substitution stand for the output under it
    atoms = {nid: _evaluated(nodes[nid]) for nid in preorder(nodes, [out])
             if nodes[nid].op == "atom"}
    out_atoms = tuple(atoms.values())
    outside = set().union(*map(_formula_gvars, out_atoms + tuple(acc.facts)))
    uses = Counter(g for mine in per_rule for g in mine)
    shared_gvars = {g for g, n in uses.items() if n > 1} | outside

    # each output atom's position among out_atoms
    slot = {nid: pos for pos, nid in enumerate(atoms)}
    # (output atom id, fact id) pairs that do not unify (see above)
    failed: set = set()

    def sat(nid: int, s: Substitution, facts, outs):
        """Yield substitutions classically satisfying the output node nid
        against the facts, a view under the frame's substitution.  outs
        holds the ids of the output's atoms under s while s is that
        substitution, and is None once a conjunct has extended it."""
        node = nodes[nid]
        if node.op == "atom":
            mine = None if outs is None else outs[slot[nid]]
            for fact, num in zip(facts[0], facts[1]):
                if (mine, num) in failed:
                    continue
                s2 = unify_atoms(atoms[nid], fact, s)
                if s2 is not None:
                    yield s2
                elif mine is not None:
                    failed.add((mine, num))
            return
        if node.op == "and":
            for s1 in sat(node.children[0], s, facts, outs):
                yield from sat(node.children[1], s1, facts,
                               outs if s1 is s else None)
            return
        if node.op == "or":
            yield from sat(node.children[0], s, facts, outs)
            yield from sat(node.children[1], s, facts, outs)
            return
        # neg, or implies read as ~left \/ right
        yield from absent(node.children[0], s, facts, outs)
        if node.op == "implies":
            yield from sat(node.children[1], s, facts, outs)

    def absent(nid: int, s: Substitution, facts, outs):
        # negation as absence: only decidable when the body is ground
        if any(_formula_gvars(s.apply_formula(atoms[a]))
               for a in preorder(nodes, [nid]) if a in atoms):
            return
        if next(sat(nid, s, facts, outs), None) is None:
            yield s

    own = [mine - shared_gvars for mine in per_rule]

    def canon_rule(ri, s):
        # rename the rule's own variables only, never a foreign one that a
        # shared variable is bound to
        mine, names = own[ri], {}

        def blind(name):
            if name in mine:
                return GVar(names.setdefault(name, f"_r{len(names)}"))

        ante, cons = acc.rules[ri]
        return tuple(F.Atom(atom.pred, tuple(replace(s.apply(t), GVar, blind)
                                             for t in atom.args))
                     for atom in ante + cons)

    # ids for facts, output atoms and rule forms: frozen atoms cache no hash
    ids: dict = {}

    def intern(x) -> int:
        return ids.setdefault(x, len(ids))

    # a rule with nothing shared has the same form under every substitution
    static = [None if per_rule[ri] & shared_gvars
              else intern(canon_rule(ri, Substitution()))
              for ri in range(len(acc.rules))]

    def extend(derived, seen=((), (), {}), s2=None, fresh=frozenset()):
        """Seen's atoms, which are under s, then derived, all under s2: the
        atoms, their ids, and by position the variables of those still open.
        An atom holding none of the variables s2 binds beyond s stays."""
        items, nums = [*seen[0], *derived], [*seen[1], *map(intern, derived)]
        opens = {}
        for pos in [*seen[2], *range(len(seen[0]), len(items))]:
            gvars = seen[2].get(pos) or _formula_gvars(items[pos])
            if gvars & fresh:
                items[pos] = s2.apply_formula(items[pos])
                nums[pos] = intern(items[pos])
                gvars = _formula_gvars(items[pos])
            if gvars:
                opens[pos] = gvars
        return items, nums, opens

    def dfs(facts, outs, unfired, s, dead):
        # facts and outs: views of the facts and the output's atoms under s;
        # dead: the firings found redundant on the path to this frame
        hit = next(sat(out, s, facts, outs[1]), None)
        if hit is not None:
            return hit
        counts: dict = {}
        forms, firsts = [], []  # firsts: the first position of each form
        for pos, ri in enumerate(unfired):
            form = static[ri]
            if form is None:
                form = intern(canon_rule(ri, s))
            if form not in counts:
                firsts.append(pos)
            counts[form] = counts.get(form, 0) + 1
            forms.append(form)
        key = (frozenset(counts.items()), tuple(sorted(facts[1])), tuple(outs[1]))
        if key in visited:
            return None
        visited.add(key)
        dead = set(dead)  # what this frame adds is for its subtree only
        # a later twin fails whenever the first one does (see above)
        for pos in firsts:
            ante, cons = acc.rules[unfired[pos]]
            # a firing's key: its form, then the ids of the facts it matched
            for used, s2 in _match_all(ante, facts, s, dead, (forms[pos],)):
                fresh = s2._stored.keys() - s._stored.keys()
                child = extend([s2.apply_formula(c) for c in cons], facts, s2, fresh)
                known = child[1][:len(facts[1])]
                if not fresh & shared_gvars \
                        and set(known).issuperset(child[1][len(known):]):
                    dead.add(used)
                    continue  # re-derives known facts, binds nothing shared
                rest = unfired[:pos] + unfired[pos + 1:]
                found = dfs(child, extend((), outs, s2, fresh), rest, s2, dead)
                if found is not None:
                    return found
        return None

    final = dfs(extend(acc.facts), extend(out_atoms),
                tuple(range(len(acc.rules))), Substitution(), set())
    if final is None:
        return ClosureResult(False, reason="no derivation covers the output")
    return ClosureResult(True, subst=final,
                         output=final.apply_formula(cfg.formula_at(out)))


def _match_all(atoms, facts, s, skip, used):
    """(used, substitution) for each way to match the atoms against the
    facts, a view, in order; used grows by the id of each fact matched.  A
    full match whose used is in skip is not tried."""
    last = len(atoms) == 1
    for fact, num in zip(facts[0], facts[1]):
        key = used + (num,)
        if last and key in skip:
            continue
        s2 = unify_atoms(atoms[0], fact, s)
        if s2 is None:
            continue
        if last:
            yield key, s2
        else:
            yield from _match_all(atoms[1:], facts, s2, skip, key)


def _possibly_coverable(nodes: dict, out: int, acc: _Inputs) -> bool:
    """Cheap upper bound on satisfiability: every fact the chaining can ever
    derive has the predicate and arity of a fact or of a rule consequent,
    so an output atom with any other is dead.  Negations count as
    satisfiable (conservative).  The search decides everything finer."""
    heads = {(a.pred, len(a.args))
             for a in acc.facts + [c for _a, cons in acc.rules for c in cons]}
    return _satisfiable(nodes, out,
                        lambda nid: (nodes[nid].pred, len(nodes[nid].args)) in heads)


def _satisfiable(nodes: dict, out: int, holds) -> bool:
    """Whether out holds when each atom node nid holds as holds(nid) says;
    the fold makes each node's bound once."""
    upper: dict = {}

    def children(nid):
        node = nodes[nid]
        return node.children if node.op in ("and", "or") and nid not in upper else ()

    def make(nid, kids):
        if nid not in upper:
            op = nodes[nid].op
            # all(()) holds: the negated side of ~ or -> may hold
            upper[nid] = (holds(nid) if op == "atom" else any(kids) if op == "or"
                          else all(kids))
        return upper[nid]

    return F.fold(out, children, make)


def _formula_gvars(atom: F.Atom) -> set:
    return set().union(*map(term_gvars, atom.args))
