"""Bounded winning-strategy extraction from a configuration.

The search is a depth-first walk over machine moves, iteratively deepened on
the number of replications it may spend:

* Environment quantifiers on the output are peeled immediately with a fresh
  symbolic constant (the strategy must win however the environment moves);
  each peel becomes an environment branch point of the strategy.
* Machine quantifiers on the input side are also applied immediately, always
  with a fresh global variable: for closure by unification the fresh variable
  subsumes every concrete instantiation, so nothing branches there.
* The genuine choice points are output-side writes and replications.  Writes
  try the fresh global variable first; concrete candidate terms are explored
  only where that is not most general — when the write commits a recurrence,
  or when the output contains negation.
* Every node attempts elementary closure; success yields the strategy leaf.
  A closure verdict depends only on the node's canonical position, so each
  `prove` call remembers the positions whose closure failed and does not
  try them again, in any deepening iteration.

Failure is `exhausted` when the whole (restricted) space was explored within
bounds and `bounded` when some branch was cut off by max_depth/max_replicas.

Restrictions act as a whitelist over machine moves: once any restriction is
set, only listed (path, rule) pairs are searched; prioritized restrictions
additionally order the moves they match.
"""

from __future__ import annotations

from dataclasses import dataclass

from .configuration import (Configuration, Move, MoveOption, Path, apply_write,
                            legal_moves, move_line, peel_env_symbolic, replicate,
                            resolve)
from .errors import ConfigError
from .graphs import preorder
from .solver import close_elementary
from .terms import App, Const, GVar, Num, Term, Var

RULE_NAMES = ("read", "write", "replicate", "close")


@dataclass(frozen=True)
class Restriction:
    path: Path
    rules: tuple
    prioritized: bool = False


@dataclass(frozen=True)
class Bounds:
    max_depth: int = 64
    max_replicas: int = 32
    term_universe: tuple | None = None  # None: derive from the configuration


@dataclass(frozen=True)
class Leaf:
    """Close the configuration here."""


@dataclass(frozen=True)
class Step:
    move: Move
    rest: "Strategy"


@dataclass(frozen=True)
class EnvBranch:
    """The environment picks a value at path; the subtree is parametric in
    the eigenvariable constant standing for that value."""
    path: Path
    var: str
    eigen: str
    rest: "Strategy"


Strategy = Leaf | Step | EnvBranch


@dataclass
class ProveResult:
    strategy: Strategy | None
    reason: str = ""  # empty on success, else exhausted | bounded
    steps: int = 0

    @property
    def ok(self) -> bool:
        return self.strategy is not None


def validate_restrictions(cfg: Configuration, restrictions) -> list[Restriction]:
    checked = []
    for r in restrictions:
        for rule in r.rules:
            if rule not in RULE_NAMES:
                raise ConfigError(f"unknown rule {rule!r} in restriction at {r.path}")
        resolve(cfg, r.path)  # dangling paths error here
        checked.append(r)
    return checked


def strategy_moves(strategy: Strategy) -> list:
    """The machine moves along the strategy's spine, for inspection."""
    out = []
    node = strategy
    while not isinstance(node, Leaf):
        if isinstance(node, Step):
            out.append(node.move)
            node = node.rest
        else:
            node = node.rest
    return out


def render_strategy(strategy: Strategy, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(strategy, Leaf):
        return f"{pad}close"
    if isinstance(strategy, Step):
        head = move_line(strategy.move)[len("MOVE "):]
        return f"{pad}{head}\n{render_strategy(strategy.rest, indent)}"
    return (f"{pad}branch read {strategy.path} (@{strategy.var} = any value)\n"
            f"{render_strategy(strategy.rest, indent + 1)}")


def term_universe(cfg: Configuration) -> list:
    """Candidate write terms: 0, then the numerals and constants in play."""
    nums, consts = set(), set()

    def scan(t: Term):
        if isinstance(t, Num):
            nums.add(t.value)
        elif isinstance(t, Const):
            consts.add(t.name)
        elif isinstance(t, App):
            for a in t.args:
                scan(a)

    for nid in preorder(cfg.nodes, cfg.roots.values()):
        for t in cfg.nodes[nid].args:
            scan(t)
    universe: list = [Num(0)]
    universe += [Num(v) for v in sorted(nums) if v != 0]
    universe += [Const(n) for n in sorted(consts)]
    return universe


def _allowed(restrictions, path: Path, rule: str) -> bool:
    if not restrictions:
        return True
    return any(r.path == path and rule in r.rules for r in restrictions)


def _priority(restrictions, path: Path, rule: str) -> int:
    for i, r in enumerate(restrictions):
        if r.prioritized and r.path == path and rule in r.rules:
            return i
    return len(restrictions)


def _output_has_neg(cfg: Configuration) -> bool:
    return any(cfg.nodes[nid].op == "neg"
               for nid in preorder(cfg.nodes, [cfg.roots[cfg.output]]))


def _canonical_key(cfg: Configuration):
    """Position snapshot for the failure memo.

    Global variables are renamed in first-occurrence order within each
    service and each replica (a fresh variable never spans two of those
    regions), and every recurrence's replicas are sorted by canonical
    content with their indices dropped: permutations of independent moves,
    and permutations of interchangeable replicas, land on the same key.
    Sound for memoizing failures because a winning continuation from one
    such position maps onto any permuted twin.  Eigenvariables keep their
    identity (they may span regions).

    The same argument makes the key sound for caching closure verdicts:
    closure by unification is invariant under renaming the global
    variables of each region apart (no variable is shared between regions,
    so the renaming is injective overall) and under permuting the replicas
    of a recurrence (the facts and rules closure collects form a multiset,
    and its search tries every order).  Two positions with one key are
    therefore both closable or both not."""

    def walk(nid, names):
        node = cfg.nodes[nid]
        base = (node.op, node.pred or "", node.var or "",
                tuple(_canon_term(t, names) for t in node.args))
        kids = tuple(walk(c, names) for c in node.children)
        if node.op == "recur":
            reps = tuple(sorted(walk(rep, {}) for _idx, rep in node.replicas))
            return base + (kids, reps)
        return base + (kids,)

    return tuple((name, name == cfg.output, walk(root, {}))
                 for name, root in cfg.roots.items())


def _canon_term(t, names):
    if isinstance(t, GVar):
        if t.name not in names:
            names[t.name] = f"g{len(names)}"
        return ("g", names[t.name])
    if isinstance(t, Const):
        return ("c", t.name)
    if isinstance(t, Num):
        return ("n", t.value)
    if isinstance(t, Var):
        return ("v", t.name)
    if isinstance(t, App):
        return ("a", t.fn, tuple(_canon_term(x, names) for x in t.args))
    return ("?", repr(t))


def prove(cfg: Configuration, restrictions=(), bounds: Bounds | None = None,
          trace_sink=None) -> ProveResult:
    """Search for a winning strategy from the current configuration."""
    bounds = bounds or Bounds()
    restrictions = list(restrictions)
    counters = {"steps": 0}
    # negation is the one output connective for which a fresh variable is
    # not the most general write; moves never introduce it, so decide once
    with_neg = _output_has_neg(cfg)

    edges: dict = {}  # (position key, move signature) -> child position key
    # position keys whose closure failed; a verdict does not depend on the
    # budget, so unlike `failed` this is kept across deepening iterations.
    # Each key maps to itself: a revisited position takes over the stored
    # key object, so its `failed`/`edges` lookups compare by identity
    # instead of walking two equal nested tuples
    unclosable: dict = {}
    for budget in range(bounds.max_replicas + 1):
        flags = {"budget": False, "depth": False}
        failed: set = set()
        found, _key = _search(cfg, 0, budget, restrictions, bounds, flags,
                              counters, failed, edges, unclosable, trace_sink,
                              eigen_base=0, with_neg=with_neg)
        if found is not None:
            return ProveResult(found, "", counters["steps"])
        if not flags["budget"]:
            reason = "bounded" if flags["depth"] else "exhausted"
            return ProveResult(None, reason, counters["steps"])
    return ProveResult(None, "bounded", counters["steps"])


def _search(cfg, depth, budget, restrictions, bounds, flags, counters,
            failed, edges, unclosable, sink, eigen_base, with_neg):
    counters["steps"] += 1
    wraps: list = []

    # forced phase: peel environment output quantifiers with eigenvariables,
    # apply input-side machine writes most generally (fresh global variable)
    opts = legal_moves(cfg)
    progressing = True
    while progressing:
        progressing = False
        for opt in opts:
            if opt.kind == "read" and opt.side == "output":
                eigen_base += 1
                name = f"_e{eigen_base}"
                cfg, var = peel_env_symbolic(cfg, opt.path, Const(name))
                wraps.append(("env", opt.path, var, name))
            elif opt.kind == "write" and opt.side == "input" \
                    and _allowed(restrictions, opt.path, "write"):
                cfg = apply_write(cfg, opt.path)
                if sink:
                    sink(move_line(cfg.trace[-1]))
                wraps.append(("step", cfg.trace[-1]))
            else:
                continue
            opts = legal_moves(cfg)
            progressing = True
            break

    key = _canonical_key(cfg)
    known = unclosable.get(key)
    if known is not None:
        key = known
    else:
        if close_elementary(cfg).ok:
            return _wrap(wraps, Leaf()), None
        unclosable[key] = key
    if key in failed:
        return None, key

    if depth >= bounds.max_depth:
        flags["depth"] = True
        failed.add(key)
        return None, key

    def explore(make_child, sig, next_budget):
        known = edges.get((key, sig))
        if known is not None and known in failed:
            return None
        child = make_child()
        if sink:
            sink(move_line(child.trace[-1]))
        sub, child_key = _search(child, depth + 1, next_budget, restrictions,
                                 bounds, flags, counters, failed, edges,
                                 unclosable, sink, eigen_base, with_neg)
        if child_key is not None:
            edges[(key, sig)] = child_key
        if sub is not None:
            return _wrap(wraps, Step(child.trace[-1], sub))
        return None

    options = _branch_options(cfg, opts, restrictions)
    for opt in options:
        if opt.kind == "replicate":
            if budget <= 0:
                flags["budget"] = True
                continue
            found = explore(lambda: replicate(cfg, opt.path, opt.index),
                            ("replicate", opt.path, opt.index), budget - 1)
            if found is not None:
                return found, None
        else:  # write
            # the fresh global variable subsumes every concrete term for
            # closure by unification, so plain writes try nothing else;
            # committing a recurrence is a real choice, and negation in the
            # output breaks the subsumption argument
            candidates: list = [None]
            if with_neg or opt.collapse:
                if bounds.term_universe is not None:
                    candidates += list(bounds.term_universe)
                else:
                    candidates += term_universe(cfg)
            for cand in candidates:
                found = explore(
                    lambda cand=cand: apply_write(cfg, opt.path, term=cand),
                    ("write", opt.path, cand), budget)
                if found is not None:
                    return found, None
    failed.add(key)
    return None, key


def _branch_options(cfg, opts, restrictions) -> list[MoveOption]:
    """Machine choice points: per service, writes before replications;
    input services come before the output.  Input-side plain writes were
    consumed by the forced phase, so what remains branches for real."""
    ordered: list[MoveOption] = []
    for name in cfg.roots:
        mine = [o for o in opts if o.path.dir == name]
        ordered += [o for o in mine if o.kind == "write" and o.side == "output"]
        ordered += [o for o in mine if o.kind == "replicate"]
    allowed = [o for o in ordered if _allowed(restrictions, o.path, o.kind)]
    if any(r.prioritized for r in restrictions):
        allowed.sort(key=lambda o: _priority(restrictions, o.path, o.kind))
    return allowed


def _wrap(wraps, tail: Strategy) -> Strategy:
    node = tail
    for item in reversed(wraps):
        if item[0] == "step":
            node = Step(item[1], node)
        else:
            _, path, var, eigen = item
            node = EnvBranch(path, var, eigen, node)
    return node
