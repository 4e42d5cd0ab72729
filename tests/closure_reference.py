"""Reference closure search for differential tests; not part of coli.

This is `close_elementary`'s search as it was before its frames became
incremental: every frame applies the substitution to every fact and to the
output's atoms, rebuilds the form of every unfired rule, and keys the memo
on the atoms themselves.  The shape checks before the search are shared
with coli.  It calls `solver.unify_atoms` through the module, so a test
that counts that function's calls counts both searches alike.
"""

from collections import Counter

from coli import formulas as F
from coli import solver
from coli.graphs import preorder
from coli.solver import (ClosureResult, Substitution, _atom, _decompose_input,
                         _formula_gvars, _Inputs, _interactive_blocker,
                         _possibly_coverable)
from coli.terms import App, GVar


def checked_close(cfg) -> ClosureResult:
    """close_elementary on cfg, checked against reference_close: the same
    verdict, reason, substitution and output, after no more unify_atoms
    calls."""
    calls = [0]
    real = solver.unify_atoms

    def counting(*args):
        calls[0] += 1
        return real(*args)

    solver.unify_atoms = counting
    try:
        want = reference_close(cfg)
        spent = calls[0]
        got = solver.close_elementary(cfg)
    finally:
        solver.unify_atoms = real
    assert (got.ok, got.reason) == (want.ok, want.reason)
    if got.ok:
        assert got.subst.render() == want.subst.render()
        assert got.output == want.output
    assert calls[0] - spent <= spent
    return got


def reference_close(cfg) -> ClosureResult:
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

    max_firings = len(acc.rules) + 8
    visited: set = set()
    per_rule: list = []
    for ante, cons in acc.rules:
        mine: set = set()
        for a in ante + cons:
            mine |= _formula_gvars(a)
        per_rule.append(mine)
    atoms = {nid: _atom(nodes[nid]) for nid in preorder(nodes, [out])
             if nodes[nid].op == "atom"}
    out_atoms = tuple(atoms.values())
    outside = set()
    for a in out_atoms + tuple(acc.facts):
        outside |= _formula_gvars(a)
    uses = Counter(g for mine in per_rule for g in mine)
    shared_gvars = {g for g, n in uses.items() if n > 1} | outside

    def sat(nid, s, facts):
        node = nodes[nid]
        if node.op == "atom":
            for fact in facts:
                s2 = solver.unify_atoms(node, fact, s)
                if s2 is not None:
                    yield s2
            return
        if node.op == "and":
            for s1 in sat(node.children[0], s, facts):
                yield from sat(node.children[1], s1, facts)
            return
        if node.op == "or":
            yield from sat(node.children[0], s, facts)
            yield from sat(node.children[1], s, facts)
            return
        yield from absent(node.children[0], s, facts)
        if node.op == "implies":
            yield from sat(node.children[1], s, facts)

    def absent(nid, s, facts):
        if any(_formula_gvars(s.apply_formula(atoms[a]))
               for a in preorder(nodes, [nid]) if a in atoms):
            return
        if next(sat(nid, s, facts), None) is None:
            yield s

    own = [mine - shared_gvars for mine in per_rule]

    def canon_rule(ri, s):
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

    static = [None if per_rule[ri] & shared_gvars else canon_rule(ri, Substitution())
              for ri in range(len(acc.rules))]

    def classes(unfired, s):
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
        key = (forms, frozenset(Counter(applied).items()),
               tuple(s.apply_formula(a) for a in out_atoms))
        if key in visited:
            return None
        visited.add(key)
        if fired >= max_firings:
            return None
        ground = set()
        open_facts = []
        for a in applied:
            if _formula_gvars(a):
                open_facts.append(a)
            else:
                ground.add(a)
        for pos in firsts:
            ri = unfired[pos]
            ante, cons = acc.rules[ri]
            for s2 in _match_all(ante, facts, s):
                derived = [s2.apply_formula(c) for c in cons]
                fresh_bound = s2._stored.keys() - s._stored.keys()
                if not fresh_bound & shared_gvars:
                    seen = ground.union(s2.apply_formula(a) for a in open_facts)
                    if all(d in seen for d in derived):
                        continue
                rest = unfired[:pos] + unfired[pos + 1:]
                found = dfs(facts + derived, rest, s2, fired + 1)
                if found is not None:
                    return found
        return None

    final = dfs(list(acc.facts), tuple(range(len(acc.rules))), Substitution(), 0)
    if final is None:
        return ClosureResult(False, reason="no derivation covers the output")
    return ClosureResult(True, subst=final,
                         output=final.apply_formula(cfg.formula_at(out)))


def _match_all(atoms, facts, s):
    if not atoms:
        yield s
        return
    for fact in facts:
        s2 = solver.unify_atoms(atoms[0], fact, s)
        if s2 is not None:
            yield from _match_all(atoms[1:], facts, s2)
