"""Bounded winning-strategy extraction from a configuration.

The search is a depth-first walk over machine moves, iteratively deepened on
the number of replications it may spend:

* Environment quantifiers on the output are peeled immediately with a fresh
  symbolic constant (the strategy must win however the environment moves);
  each peel becomes an environment branch point of the strategy.
* Machine quantifiers on the input side are also applied immediately, always
  with a fresh global variable: for closure by unification the fresh variable
  subsumes every concrete instantiation, so nothing branches there.
* A forced move is taken where the move before it landed: the node it
  peeled, or a new replica's root.  Every option that a move opens lies in
  the subtree at its landing node and is listed where the option it took
  was (configuration's module docstring).  A search node is entered with
  no forced option left, since its parent's forced phase ended, and the
  forced phase always takes the first forced option, so none is listed
  before the landing node.  When that node is itself a forced quantifier
  it is the first forced option, and the search lists the options only
  when the landing is not forced.  The root lists, because the moves of
  a script before `prove` may have landed anywhere.
* The genuine choice points are output-side writes and replications.  Writes
  try the fresh global variable first; concrete candidate terms are explored
  only where that is not most general — when the write commits a recurrence,
  or when the output contains negation.
* Every node from the start level on (below) attempts elementary closure;
  success ends the won line (below), and the result keeps the leaf's
  position and closure for `execute`.  A closure verdict depends only on
  the node's canonical position, so each `prove` call remembers the
  positions whose closure failed and does not try them again, in any
  deepening iteration.
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

The same bound skips closure inside an iteration.  At budget B a node that
has b = B - budget replications spent holds at most b replicas of each
input recurrence, and the moves that spend nothing add no input fact or
rule: input-side writes take a fresh variable, which the relaxation also
takes, and the start is 0 wherever the output has a recurrence that a
write could collapse.  So the node's closure derives no more than level b,
which covers nothing below the start, and only nodes with b >= start try
closure.

A strategy is the won line in play order: a tuple of the machine moves
from the searched position to the winning leaf, with an `EnvBranch` point
where the environment picks, and closing after the last item implied.
Every prover move targets a path that `legal_moves` listed, so no replica
is created on the way and each move appends exactly one entry to the
trace; `peel_env_symbolic` appends none.  So the moves are the leaf's
trace past the searched position, and `search` only records at which
trace length each branch was peeled.

Failure is `exhausted` when the whole (restricted) space was explored within
bounds and `bounded` when a branch hit max_depth, max_replicas or
`configuration.REPLICA_LIMIT`.

Restrictions act as a whitelist over machine moves: once any restriction is
set, only listed (path, rule) pairs are searched; prioritized restrictions
additionally order the moves they match.
"""

from __future__ import annotations

from . import configuration
from .configuration import (Configuration, Path, _peel, apply_write,
                            landing_option, legal_moves, move_line,
                            peel_env_symbolic, replicate, resolve,
                            service_regions)
from .errors import ConfigError
from .graphs import preorder
from .records import Record, Value
from .solver import (ClosureResult, Substitution, _decompose_input, _Inputs,
                     _satisfiable, close_elementary, unify_atoms)
from .terms import Const, GVar, Num, is_ground, leaves

RULE_NAMES = ("read", "write", "replicate", "close")


class Restriction(Value):
    __slots__ = ("path", "rules", "prioritized")

    def __init__(self, path: Path, rules: tuple, prioritized: bool = False):
        self._setfields(path, rules, prioritized)


class Bounds(Value):
    __slots__ = ("max_depth", "max_replicas")

    def __init__(self, max_depth: int = 64, max_replicas: int = 32):
        self._setfields(max_depth, max_replicas)


class EnvBranch(Value):
    """The environment picks a value at path; the rest of the line is
    parametric in the eigenvariable constant standing for that value."""
    __slots__ = ("path", "var", "eigen")

    def __init__(self, path: Path, var: str, eigen: str):
        self._setfields(path, var, eigen)


Strategy = tuple  # of Move | EnvBranch, in play order; then close


class ProveResult(Record):
    """`reason` is empty on success, else exhausted | bounded.  A win also
    keeps the configuration it was proved from (`source`), the position
    at the strategy's leaf and that position's winning closure."""
    __slots__ = ("strategy", "reason", "steps", "source", "leaf", "closed")

    def __init__(self, strategy: Strategy | None, reason: str = "", steps: int = 0,
                 source: Configuration | None = None,
                 leaf: Configuration | None = None,
                 closed: ClosureResult | None = None):
        self._setfields(strategy, reason, steps, source, leaf, closed)

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


def render_strategy(strategy: Strategy) -> str:
    lines, indent = [], 0
    for item in strategy:
        branch = isinstance(item, EnvBranch)
        lines.append("  " * indent + (
            f"branch read {item.path} (@{item.var} = any value)" if branch
            else move_line(item)[len("MOVE "):]))
        indent += branch
    return "\n".join(lines + ["  " * indent + "close"])


def term_universe(cfg: Configuration) -> list:
    """Candidate write terms: 0, then the numerals and constants in play."""
    found = [x for nid in preorder(cfg.nodes, cfg.roots.values())
             for t in cfg.nodes[nid].args for x in leaves(t)]
    nums = {x.value for x in found if x.__class__ is Num}
    consts = {x.name for x in found if x.__class__ is Const}
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
    won = None  # the winning leaf's position and closure, and its line's branches

    def search(cfg, depth, budget, branches):
        """None on a win, else the position's key.  `branches` holds a
        (trace length, EnvBranch) pair per environment pick on the line."""
        nonlocal steps, won
        steps += 1

        # forced phase: eigenvariables peel the output's environment
        # quantifiers, and input-side machine writes take a fresh variable.
        # A landing that is one of these, a write only where the
        # restrictions allow it, is taken without listing (module
        # docstring); the root lists
        land = landing_option(cfg) if depth else None
        while True:
            if land and (land[0] == "read" or not restrictions
                         or (land[1], "write") in ranks):
                kind, path = land
            else:
                opts = legal_moves(cfg)
                forced = [o for o in opts if o.kind == "read" and o.side == "output"
                          or o.kind == "write" and o.side == "input" and (
                              not restrictions or (o.path, "write") in ranks)]
                if not forced:
                    break
                kind, path = forced[0].kind, forced[0].path
            if kind == "read":
                name = f"_e{len(branches) + 1}"
                cfg, var = peel_env_symbolic(cfg, path, Const(name))
                branches += ((len(cfg.trace), EnvBranch(path, var, name)),)
            else:
                cfg = apply_write(cfg, path)
                if trace_sink:
                    trace_sink(move_line(cfg.trace[-1]))
            land = landing_option(cfg)

        key = _canonical_key(cfg)
        known = unclosable.get(key)
        if known is not None:
            key = known
        elif level - budget >= start:  # below the start closure cannot win
            closed = close_elementary(cfg)
            if closed.ok:
                won = cfg, closed, branches
                return None
            unclosable[key] = key
        if key in failed:
            return key

        if depth >= bounds.max_depth:
            flags["depth"] = True
            failed.add(key)
            return key

        # machine choice points: the inputs' replications, then the output's
        # writes and then its replications (the output is the last
        # service).  Input-side plain writes were taken by the forced
        # phase, so what remains branches for real
        options = [o for o in opts if o.kind == "replicate" and o.side == "input"]
        options += [o for o in opts if o.kind == "write" and o.side == "output"]
        options += [o for o in opts if o.kind == "replicate" and o.side == "output"]
        if restrictions:
            options = [o for o in options if (o.path, o.kind) in ranks]
            options.sort(key=lambda o: ranks[o.path, o.kind])
        if _dead(cfg) and any(o.kind == "replicate" for o in options):
            # the flag that the chain of replications below would set
            # (module docstring); nothing below closes
            flags["budget" if depth + budget < bounds.max_depth
                  else "depth"] = True
            failed.add(key)
            return key

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
                child_key = search(child, depth + 1, next_budget, branches)
                if child_key is None:
                    return None
                edges[key, sig] = child_key
        failed.add(key)
        return key

    start = 0 if with_neg else _start_budget(cfg, bounds.max_replicas)
    try:
        for level in range(start, bounds.max_replicas + 1):
            flags = {"budget": False, "depth": False}
            failed: set = set()
            if search(cfg, 0, level, ()) is None:
                leaf, closed, branches = won
                line = list(leaf.trace[len(cfg.trace):])
                for i, (at, branch) in enumerate(branches):
                    line.insert(at - len(cfg.trace) + i, branch)
                return ProveResult(tuple(line), "", steps, cfg, leaf, closed)
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
