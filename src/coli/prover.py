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
* A dead position is not searched below when it offers a replicate
  option.  It holds something that closure rejects and that no move can
  remove (configuration's module docstring), so no position below it
  closes.  Its subtree could only set a bound flag, and which one is known
  without searching it: replicating one recurrence over and over spends
  the budget by depth + budget, and no other path spends it sooner.  So
  the node sets the budget flag when that depth is below max_depth and the
  depth flag otherwise, which are the flags its subtree would have set.

Deepening starts at the first level at which a relaxed closure covers the
output.  Level 0 is the facts in play under as many rounds of their rules
as there are rules, each of which closure fires once.  Each level above
adds the input recurrences' bodies, each one fact or one rule, fired once
on what is new, and those rounds again.  A derivation path after b
replications holds b body parts at most, so level b derives all it does
and no skipped iteration could win.  An uncovered query starts at 0: any
start gives its verdict, but its trace would lose its replicate moves.
`steps` counts the nodes from the start.

Failure is `exhausted` when the whole (restricted) space was explored within
bounds and `bounded` when a branch hit max_depth, max_replicas or
`configuration.REPLICA_LIMIT`.

Restrictions act as a whitelist over machine moves: once any restriction is
set, only listed (path, rule) pairs are searched; prioritized restrictions
additionally order the moves they match.
"""

from __future__ import annotations

from . import configuration
from .configuration import (Configuration, Move, MoveOption, Path, _peel,
                            apply_write, legal_moves, move_line,
                            peel_env_symbolic, replicate, resolve,
                            service_regions)
from .errors import ConfigError
from .graphs import preorder
from .records import Record, Value
from .solver import (Substitution, _decompose_input, _Inputs, _satisfiable,
                     close_elementary, unify_atoms)
from .terms import App, Const, GVar, Num, is_ground

RULE_NAMES = ("read", "write", "replicate", "close")


class Restriction(Value):
    __slots__ = ("path", "rules", "prioritized")

    def __init__(self, path: Path, rules: tuple, prioritized: bool = False):
        self._setfields(path, rules, prioritized)


class Bounds(Value):
    __slots__ = ("max_depth", "max_replicas")

    def __init__(self, max_depth: int = 64, max_replicas: int = 32):
        self._setfields(max_depth, max_replicas)


class Leaf(Value):
    """Close the configuration here."""
    __slots__ = ()


class Step(Value):
    __slots__ = ("move", "rest")

    def __init__(self, move: Move, rest: "Strategy"):
        self._setfields(move, rest)


class EnvBranch(Value):
    """The environment picks a value at path; the subtree is parametric in
    the eigenvariable constant standing for that value."""
    __slots__ = ("path", "var", "eigen", "rest")

    def __init__(self, path: Path, var: str, eigen: str, rest: "Strategy"):
        self._setfields(path, var, eigen, rest)


Strategy = Leaf | Step | EnvBranch


class ProveResult(Record):
    """`reason` is empty on success, else exhausted | bounded."""
    __slots__ = ("strategy", "reason", "steps")

    def __init__(self, strategy: Strategy | None, reason: str = "", steps: int = 0):
        self._setfields(strategy, reason, steps)

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
    return out


def render_strategy(strategy: Strategy) -> str:
    lines, indent = [], 0  # a strategy is a chain: a loop walks it at any length
    while not isinstance(strategy, Leaf):
        lines.append("  " * indent + (
            move_line(strategy.move)[len("MOVE "):] if isinstance(strategy, Step)
            else f"branch read {strategy.path} (@{strategy.var} = any value)"))
        indent += isinstance(strategy, EnvBranch)
        strategy = strategy.rest
    return "\n".join(lines + ["  " * indent + "close"])


def term_universe(cfg: Configuration) -> list:
    """Candidate write terms: 0, then the numerals and constants in play.
    Terms are scanned on an explicit stack, so their depth costs no frames."""
    nums, consts = set(), set()
    stack = [t for nid in preorder(cfg.nodes, cfg.roots.values())
             for t in cfg.nodes[nid].args]
    while stack:
        t = stack.pop()
        if isinstance(t, Num):
            nums.add(t.value)
        elif isinstance(t, Const):
            consts.add(t.name)
        elif isinstance(t, App):
            stack.extend(t.args)
    universe: list = [Num(0)]
    universe += [Num(v) for v in sorted(nums) if v != 0]
    universe += [Const(n) for n in sorted(consts)]
    return universe


def _output_has_neg(cfg: Configuration) -> bool:
    return any(cfg.nodes[nid].op == "neg"
               for nid in preorder(cfg.nodes, [cfg.roots[cfg.output]]))


FACT_CAP = 2000  # facts that the relaxation of `_start_budget` may hold


class _Unfollowed(Exception):
    """A shape, fact or size that the relaxation does not follow."""


def _start_budget(cfg: Configuration, max_replicas: int) -> int:
    """The first level at which the relaxed closure (module docstring)
    covers the output, 0 if none does, or the levels that already failed
    when it meets something it does not follow."""
    work, level = cfg._clone(), 0  # quantifiers are peeled in a copy
    nodes = work.nodes

    def peeled(nid):  # the node below nid's quantifiers, their variables global
        while nodes[nid].op in ("all", "exists"):
            _peel(work, nid, GVar("." + nodes[nid].var))
        return nid

    def plain(atom):  # a variable below s, + or * would match only by arithmetic
        return all(isinstance(t, GVar) or is_ground(t) for t in atom.args)

    def relaxed(nid):  # the facts and one-antecedent rules below nid
        acc = _Inputs()
        if _decompose_input(work, peeled(nid), acc) or not all(
                len(ante) == 1 and plain(ante[0]) for ante, _cons in acc.rules):
            raise _Unfollowed
        return acc.facts, acc.rules

    def add(fact):
        if fact not in facts:
            if len(facts) >= FACT_CAP or not all(map(is_ground, fact.args)):
                raise _Unfollowed
            facts[fact] = None
            for nid in [n for n, atom in todo.items()
                        if unify_atoms(atom, fact, Substitution()) is not None]:
                del todo[nid]

    def fire(group, rules):  # each rule on the facts it has not seen
        new, seen[group] = list(facts)[seen[group]:], len(facts)
        for (ante,), cons in rules:
            for fact in new:
                s = unify_atoms(ante, fact, Substitution())
                for atom in () if s is None else cons:
                    add(s.apply_formula(atom))

    try:
        paid = [relaxed(nodes[root].children[0])
                for name, root in work.roots.items()
                if name != work.output and nodes[root].op == "recur"]
        if not any(rs for _fs, rs in paid) \
                or any(len(fs) + len(rs) > 1 for fs, rs in paid):
            return 0  # each body one fact or rule (module docstring)
        out = peeled(work.roots[work.output])
        todo = {nid: nodes[nid] for nid in preorder(nodes, [out])  # atoms unmet
                if nodes[nid].op not in ("and", "or")}
        if not all(n.op == "atom" and plain(n) for n in todo.values()):
            return 0
        free = [relaxed(root) for root in cfg.input_contents()]
        rules = [rule for _fs, rs in free for rule in rs]
        body = [rule for _fs, rs in paid for rule in rs]
        facts, seen = {}, [0, 0]  # facts in order; per group the first unseen
        for level in range(max_replicas + 1):
            for fs, _rs in paid if level else free:
                for fact in fs:
                    add(fact)  # known from level 1 on, so added once
            if level:
                fire(1, body)
            for _round in rules:
                fire(0, rules)
            if _satisfiable(nodes, out, lambda nid: nid not in todo):
                return level
    except _Unfollowed:
        return level
    return 0


def _canonical_key(cfg: Configuration):
    """Position snapshot for the failure memo.

    Global variables are renamed in first-occurrence order within each
    service and each replica (a fresh variable never spans two of those
    regions), and every recurrence's replicas are sorted by canonical
    content with their indices dropped: permutations of independent moves,
    and permutations of interchangeable replicas, land on the same key.
    Sound for memoizing failures because a winning continuation from one
    such position maps onto any permuted one.  Eigenvariables keep their
    identity (they may span regions).

    The same argument makes the key sound for caching closure verdicts:
    closure by unification is invariant under renaming the global
    variables of each region apart (no variable is shared between regions,
    so the renaming is injective overall) and under permuting the replicas
    of a recurrence (the facts and rules closure collects form a multiset,
    and its search tries every order).  Two positions with one key are
    therefore both closable or both not.

    A region is a service, or one replica of a recurrence, without the
    replicas nested in it.  Each region's key is cached in the
    configuration beside its move options, and the key of a region holding
    a recurrence takes its replicas' keys from their own entries.  A move
    drops only the entries of the regions its path enters, so a search node
    walks just the service and replica it touched (configuration's module
    docstring)."""
    return tuple((name, name == cfg.output, entry[0])
                 for name, entry in zip(cfg.roots, service_regions(cfg)))


def prove(cfg: Configuration, restrictions=(), bounds: Bounds | None = None,
          trace_sink=None) -> ProveResult:
    """Search for a winning strategy from the current configuration."""
    bounds = bounds or Bounds()
    restrictions = list(restrictions)
    # (path, rule) -> rank: the index of the first prioritized restriction
    # listing the pair, else len(restrictions).  Once any restriction is set,
    # only the pairs in this table are searched, in the order of their ranks
    ranks: dict = {}
    for i, r in enumerate(restrictions):
        rank = i if r.prioritized else len(restrictions)
        for rule in r.rules:
            ranks[r.path, rule] = min(rank, ranks.get((r.path, rule), rank))
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
    steps = 0

    def search(cfg, depth, budget, eigen_base):
        nonlocal steps
        steps += 1
        wraps: list = []  # (Step | EnvBranch, fields) above the position

        # forced phase: eigenvariables peel the output's environment
        # quantifiers, and input-side machine writes take a fresh variable
        opts = legal_moves(cfg)
        while forced := [o for o in opts if o.kind == "read" and o.side == "output"
                         or o.kind == "write" and o.side == "input" and (
                             not restrictions or (o.path, "write") in ranks)]:
            opt = forced[0]
            if opt.kind == "read":
                eigen_base += 1
                name = f"_e{eigen_base}"
                cfg, var = peel_env_symbolic(cfg, opt.path, Const(name))
                wraps.append((EnvBranch, (opt.path, var, name)))
            else:
                cfg = apply_write(cfg, opt.path)
                if trace_sink:
                    trace_sink(move_line(cfg.trace[-1]))
                wraps.append((Step, (cfg.trace[-1],)))
            opts = legal_moves(cfg)

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

        # machine choice points: per service, writes before replications;
        # input services come before the output.  Input-side plain writes
        # were taken by the forced phase, so what remains branches for real
        options: list[MoveOption] = []
        for name in cfg.roots:
            mine = [o for o in opts if o.path.dir == name]
            options += [o for o in mine if o.kind == "write" and o.side == "output"]
            options += [o for o in mine if o.kind == "replicate"]
        if restrictions:
            options = [o for o in options if (o.path, o.kind) in ranks]
            options.sort(key=lambda o: ranks[o.path, o.kind])
        if _dead(cfg) and any(o.kind == "replicate" for o in options):
            # the flag that the chain of replications below would set
            # (module docstring); nothing below closes
            flags["budget" if depth + budget < bounds.max_depth
                  else "depth"] = True
            failed.add(key)
            return None, key

        for opt in options:
            # each option's moves, as (argument, next budget)
            if opt.kind == "replicate":
                if opt.index > configuration.REPLICA_LIMIT:
                    flags["depth"] = True  # a bound that no larger budget lifts
                    continue
                if budget <= 0:
                    flags["budget"] = True
                    continue
                moves = [(opt.index, budget - 1)]
            else:  # write
                # the fresh global variable subsumes every concrete term for
                # closure by unification, so plain writes try nothing else;
                # committing a recurrence is a real choice, and negation in
                # the output breaks the subsumption argument
                moves = [(None, budget)]
                if with_neg or opt.collapse:
                    moves += [(term, budget) for term in term_universe(cfg)]
            for arg, next_budget in moves:
                sig = (opt.kind, opt.path, arg)
                known = edges.get((key, sig))
                if known is not None and known in failed:
                    continue
                child = (replicate(cfg, opt.path, arg) if opt.kind == "replicate"
                         else apply_write(cfg, opt.path, term=arg))
                if trace_sink:
                    trace_sink(move_line(child.trace[-1]))
                sub, child_key = search(child, depth + 1, next_budget,
                                        eigen_base)
                if child_key is not None:
                    edges[key, sig] = child_key
                if sub is not None:
                    return _wrap(wraps, Step(child.trace[-1], sub)), None
        failed.add(key)
        return None, key

    start = 0 if with_neg else _start_budget(cfg, bounds.max_replicas)
    try:
        for budget in range(start, bounds.max_replicas + 1):
            flags = {"budget": False, "depth": False}
            failed: set = set()
            found, _key = search(cfg, 0, budget, 0)
            if found is not None:
                return ProveResult(found, "", steps)
            if not flags["budget"]:
                reason = "bounded" if flags["depth"] else "exhausted"
                return ProveResult(None, reason, steps)
        return ProveResult(None, "bounded", steps)
    finally:
        del search  # it holds itself through its closure: free the memos now


def _dead(cfg) -> bool:
    """Whether some region of the position is dead: no position reachable
    from it closes (configuration's module docstring)."""
    return any(entry[2] for entry in service_regions(cfg))


def _wrap(wraps, tail: Strategy) -> Strategy:
    for cls, fields in reversed(wraps):
        tail = cls(*fields, tail)
    return tail
