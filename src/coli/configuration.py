"""The live game state: expanded services, polarity-aware moves, replication.

Services are kept in one node store so that moves can rewrite a single node
(peeling a quantifier, adding a replica) while leaving every other address
stable.  A recurrence node lists its replicas as (index, root) pairs, and a
path's integer segment at a recurrence names a replica.  A node with
in-degree > 1 in a service's expansion is a shared (cirquent) node.  Each
service is expanded straight into the store (`Expansion`), which reports
these nodes as it builds them, and the configuration records them once,
before the first move.  A shared node and everything below it are
read-only: moves never enter one (`legal_moves` does not list them and a
path into one raises `SharedNodeError`), and replicas point at shared nodes
instead of copying them.  A shared node is ground, because only ground
references are expanded, so substitutions pass it by.

Polarity is positional: on the output side ``@`` belongs to the environment
and ``#`` to the machine; the input side flips, as does descending through
``~`` or the left side of ``->``.

Configurations are values: every operation returns a new configuration and
appends the move it performed to the trace, so a trace replayed from the
initial configuration reproduces the final one.

A move changes one service, and inside it at most the replicas its path
enters, so each configuration caches what proof search reads per region.  A
region is a service root, or the root of one replica of a recurrence; it
holds the nodes below its root except those of the replicas of its
recurrences, which are regions of their own.  The cache maps a region's root
id to an entry of three parts: the region's canonical key, its `MoveOption`
list, and whether it is dead.  A region is dead when it, or a replica inside
it, holds something that closure rejects and that no move can remove: on the
output side a recurrence that has replicas, which can no longer collapse;
in an input's content (`input_contents`) a recurrence, a disjunction or a
negation.  A recurrence contributes its replicas' entries: the keys sorted,
the option lists in index order, the dead flags to its own.  Moves copy the
cache with the node store and drop the entries of the regions along their
path: the service root and every replica root the path enters.  Every other
region keeps its nodes and its entry.  A region missing from the cache is
walked once, on an explicit stack, by `legal_moves`, the prover's position
key or its dead-position check, whichever asks first.
"""

from __future__ import annotations

from . import formulas as F
from .directories import DirectoryTable, Expansion
from .errors import BoundError, ConfigError, SharedNodeError
from .graphs import FormulaGraph, GNode
from .records import Value
from .terms import (App, Const, GVar, Num, Term, Var, pretty_term, subst_var,
                    term_vars)

REPLICA_LIMIT = 256  # replicas of one recurrence


class Path(Value):
    __slots__ = ("dir", "segments")

    def __init__(self, dir: str, segments: tuple = ()):
        put_dir, put_segments = self._setters
        put_dir(self, dir)
        put_segments(self, segments)

    def __eq__(self, other):
        return (other.__class__ is Path and self.dir == other.dir
                and self.segments == other.segments)

    def __hash__(self):
        return hash((self.dir, self.segments))

    def __str__(self):
        return "/" + self.dir + "".join(f".{s}" for s in self.segments)


class ReadMove(Value):
    __slots__ = ("path", "value", "var")

    def __init__(self, path: Path, value: int, var: str):
        self._setfields(path, value, var)


class WriteMove(Value):
    """`gvar` names a fresh variable write, `term` a concrete (prover) write."""
    __slots__ = ("path", "gvar", "term")

    def __init__(self, path: Path, gvar: str | None = None, term: Term | None = None):
        self._setfields(path, gvar, term)


class ReplicateMove(Value):
    __slots__ = ("path", "index")

    def __init__(self, path: Path, index: int):
        self._setfields(path, index)


Move = ReadMove | WriteMove | ReplicateMove


def move_line(move: Move) -> str:
    """The stable one-line trace rendering of a move."""
    if isinstance(move, ReadMove):
        return f"MOVE read {move.path} value={move.value} var={move.var}"
    if isinstance(move, WriteMove):
        if move.gvar is not None:
            return f"MOVE write {move.path} var={move.gvar}"
        return f"MOVE write {move.path} term={pretty_term(move.term)}"
    return f"MOVE replicate {move.path} idx={move.index}"


class MoveOption(Value):
    """A currently legal move point (values left to whoever moves): `kind` is
    read | write | replicate, `side` input | output, `index` a replicate's next
    replica index; `collapse` marks a write that commits an output recurrence."""
    __slots__ = ("kind", "path", "side", "index", "collapse")

    def __init__(self, kind: str, path: Path, side: str, index: int | None = None,
                 collapse: bool = False):
        self._setfields(kind, path, side, index, collapse)


class Configuration:
    """Node ids are dense and never freed, so the next one is len(nodes);
    the fresh global variables so far are W1 .. W{next_gvar - 1}.
    `regions` caches (key, options, dead) per region root (module
    docstring)."""

    def __init__(self):
        self.nodes: dict[int, GNode] = {}
        self.roots: dict[str, int] = {}
        self.output: str = ""
        self.shared: frozenset[int] = frozenset()
        self.trace: list[Move] = []
        self.next_gvar = 1
        self.regions: dict[int, tuple] = {}

    def _clone(self, stale=()) -> "Configuration":
        """A copy whose cache lacks the entries of the `stale` regions."""
        out = Configuration.__new__(Configuration)
        out.nodes = dict(self.nodes)
        out.regions = dict(self.regions)
        for root in stale:
            out.regions.pop(root, None)
        out.roots = dict(self.roots)
        out.output = self.output
        out.shared = self.shared
        out.trace = list(self.trace)
        out.next_gvar = self.next_gvar
        return out

    # inspection ------------------------------------------------------

    def root_of(self, name: str) -> int:
        if name not in self.roots:
            raise ConfigError(f"unknown service /{name}")
        return self.roots[name]

    def formula_at(self, nid: int) -> F.Formula:
        return FormulaGraph(nodes=self.nodes, root=nid).to_formula()

    def input_contents(self):
        """Node ids of the content in play, per input.

        For a service whose root is a recurrence the content is its replicas
        (an unused recurrence root contributes nothing); otherwise it is the
        root itself.
        """
        for name, root in self.roots.items():
            if name == self.output:
                continue
            node = self.nodes[root]
            if node.op == "recur":
                yield from (rep for _idx, rep in node.replicas)
            else:
                yield root


def init_configuration(table: DirectoryTable, input_names=None,
                       output_name: str | None = None) -> Configuration:
    """Expand the named services into a fresh configuration with empty trace."""
    output_name = output_name or table.query
    if not output_name:
        raise ConfigError("no output service designated (missing 'query /name')")
    if input_names is None:
        input_names = [n for n in table.input_names() if n != output_name]
    cfg = Configuration()
    cfg.output = output_name
    shared: set[int] = set()
    expansion = Expansion(table, cfg.nodes)  # one for all services
    for name in list(input_names) + [output_name]:
        if name not in table.defs:
            raise ConfigError(f"undefined service /{name}")
        cfg.roots[name], found = expansion.expand(F.DirRef(name))
        shared |= found
    cfg.shared = frozenset(shared)
    return cfg


# path resolution ------------------------------------------------------

def resolve(cfg: Configuration, path: Path, create: bool = False):
    """Follow a path to a node; returns (cfg, node id, polarity sign).

    Integer segments index structural children (1-based) except at a
    recurrence, where they name replicas; with `create`, missing replicas
    are created on demand and the returned configuration records the
    implicit replicate moves.  A path that enters a shared node raises
    SharedNodeError; one that steps into the body of a quantifier not yet
    played raises ConfigError.
    """
    return _resolve(cfg, path, create)[:3]


def _resolve(cfg: Configuration, path: Path, create: bool = False):
    """`resolve`, plus the roots of the regions the path enters: the
    service root and every replica root, outermost first."""
    if path.dir not in cfg.roots:
        raise ConfigError(f"unknown service in path {path}")
    cur = cfg.roots[path.dir]
    regions = [cur]
    sign = 1 if path.dir == cfg.output else -1
    consumed: list = []
    for seg in path.segments:
        if not isinstance(seg, int):
            raise ConfigError(f"unresolved path segment {seg!r} in {path}")
        node = cfg.nodes[cur]
        if node.op == "recur":
            if seg < 1:
                raise ConfigError(f"replica indices start at 1: {path}")
            rep = _replica(node, seg)
            if rep is None:
                here = Path(path.dir, tuple(consumed))
                if not create:
                    raise ConfigError(f"replica {seg} of {here} does not exist")
                cfg = replicate(cfg, here, seg)
                rep = _replica(cfg.nodes[cur], seg)
            cur = rep
            regions.append(cur)
        else:
            kids = node.children
            if not 1 <= seg <= len(kids):
                raise ConfigError(f"no child {seg} under "
                                  f"{Path(path.dir, tuple(consumed))} "
                                  f"(node has {len(kids)})")
            if node.op == "neg" or (node.op == "implies" and seg == 1):
                sign = -sign
            cur = kids[seg - 1]
        consumed.append(seg)
        if cur in cfg.shared:
            raise SharedNodeError(f"{Path(path.dir, tuple(consumed))} is a "
                                  "shared node and read-only")
        if node.op in ("all", "exists"):
            raise ConfigError(f"{Path(path.dir, tuple(consumed[:-1]))} is a "
                              "quantifier not yet played; its body has no path")
    return cfg, cur, sign, regions


def _replica(node: GNode, index: int) -> int | None:
    """The root of the recurrence's replica `index`, or None."""
    for idx, rep in node.replicas:
        if idx == index:
            return rep
    return None


def _is_machine(op: str, sign: int) -> bool:
    return (op == "exists") == (sign > 0)


# node rewriting -------------------------------------------------------

def _subst_nodes(cfg: Configuration, nid: int, var: str, value: Term):
    """In-place substitution of value for the free var below nid.  The walk
    keeps an explicit stack, so depth costs no interpreter frames."""
    nodes, shared = cfg.nodes, cfg.shared
    stack = [nid]
    while stack:
        nid = stack.pop()
        if nid in shared:
            continue
        node = nodes[nid]
        if node.op == "atom":
            if any(var in term_vars(t) for t in node.args):
                args = tuple(subst_var(t, var, value) for t in node.args)
                nodes[nid] = GNode(node.op, node.children, node.pred, args,
                                   node.var, node.replicas)
        elif node.op not in ("all", "exists") or node.var != var:
            stack.extend(node.children)


def _peel(cfg: Configuration, nid: int, value: Term):
    """Replace the quantifier node at nid by its body with value substituted.

    A shared body is copied into nid unchanged; nid and the body's children,
    which now have two parents, become shared too."""
    node = cfg.nodes[nid]
    body = node.children[0]
    _subst_nodes(cfg, body, node.var, value)
    cfg.nodes[nid] = cfg.nodes[body]
    if body in cfg.shared:
        cfg.shared |= {nid, *cfg.nodes[body].children}


# moves ----------------------------------------------------------------

def apply_read(cfg: Configuration, path: Path, value: int, var: str) -> Configuration:
    """Environment resolves its choice quantifier at path with a natural."""
    if not isinstance(value, int) or value < 0:
        raise ConfigError(f"read value must be a natural, got {value!r}")
    cfg, nid, sign, regions = _resolve(cfg, path, create=True)
    node = cfg.nodes[nid]
    if node.op not in ("all", "exists"):
        raise ConfigError(f"read needs a choice quantifier at {path}, "
                          f"found {node.label()}")
    if _is_machine(node.op, sign):
        raise ConfigError(f"wrong polarity: {path} is a machine quantifier")
    out = cfg._clone(regions)
    _peel(out, nid, Num(value))
    out.trace.append(ReadMove(path, value, var))
    return out


def peel_env_symbolic(cfg: Configuration, path: Path, value: Term):
    """Peel an environment quantifier with a symbolic constant (proof search
    only; records no move).  Returns (configuration, bound variable name)."""
    cfg, nid, sign, regions = _resolve(cfg, path)
    node = cfg.nodes[nid]
    if node.op not in ("all", "exists") or _is_machine(node.op, sign):
        raise ConfigError(f"no environment quantifier at {path}")
    out = cfg._clone(regions)
    _peel(out, nid, value)
    return out, node.var


def apply_write(cfg: Configuration, path: Path, term: Term | None = None) -> Configuration:
    """Machine resolves its choice quantifier at path.

    With `term` omitted a fresh global variable is introduced (its value is
    settled later by unification).  At an output-side recurrence that has no
    replicas yet, a write commits to a single copy: the recurrence collapses
    and the write applies to its principal quantifier.
    """
    cfg, nid, sign, regions = _resolve(cfg, path, create=True)
    node = cfg.nodes[nid]
    out = cfg._clone(regions)
    if node.op == "recur":
        if sign < 0:
            raise ConfigError(f"cannot collapse input recurrence {path}; "
                              "replicate instead")
        if node.replicas:
            raise ConfigError(f"{path} already has replicas; write inside one")
        if node.children[0] in out.shared:
            raise SharedNodeError(f"recurrence body at {path} is a shared "
                                  "node and read-only")
        body = out.nodes[node.children[0]]
        if body.op not in ("all", "exists") or not _is_machine(body.op, sign):
            raise ConfigError(f"recurrence body at {path} has no machine quantifier")
        out.nodes[nid] = body
        node = body
    if node.op not in ("all", "exists"):
        raise ConfigError(f"write needs a choice quantifier at {path}, "
                          f"found {node.label()}")
    if not _is_machine(node.op, sign):
        raise ConfigError(f"wrong polarity: {path} is an environment quantifier")
    if term is None:
        name = f"W{out.next_gvar}"
        out.next_gvar += 1
        _peel(out, nid, GVar(name))
        out.trace.append(WriteMove(path, gvar=name))
    else:
        _peel(out, nid, term)
        out.trace.append(WriteMove(path, term=term))
    return out


def replicate(cfg: Configuration, path: Path, index: int) -> Configuration:
    """Create replica `index` of the recurrence at path as a fresh copy of its
    unshared nodes; the copy points at the same shared nodes."""
    cfg, nid, _sign, regions = _resolve(cfg, path)
    node = cfg.nodes[nid]
    if node.op != "recur":
        raise ConfigError(f"{path} is not a recurrence")
    if index < 1:
        raise ConfigError(f"replica indices start at 1, got {index}")
    if _replica(node, index) is not None:
        raise ConfigError(f"replica {index} of {path} already exists")
    if len(node.replicas) >= REPLICA_LIMIT or index > REPLICA_LIMIT:
        raise BoundError(f"replica limit {REPLICA_LIMIT} exceeded at {path}")
    out = cfg._clone(regions)

    # copy the body on an explicit stack, children before their parent;
    # `done` holds the new ids of copied nodes whose parent is still open.
    # Nodes are immutable, so one whose children stay the same (a leaf, say)
    # is shared rather than rebuilt
    done: list = []
    stack = [(node.children[0], False)]
    while stack:
        old, entered = stack.pop()
        if old in out.shared:
            done.append(old)
            continue
        n = out.nodes[old]
        if not entered:
            stack.append((old, True))
            stack.extend((c, False) for c in reversed(n.children))
            continue
        cut = len(done) - len(n.children)
        kids = tuple(done[cut:])
        del done[cut:]
        done.append(len(out.nodes))
        out.nodes[done[-1]] = n if kids == n.children else GNode(
            n.op, kids, n.pred, n.args, n.var, n.replicas)
    pairs = node.replicas + ((index, done.pop()),)
    out.nodes[nid] = GNode(node.op, node.children, node.pred, node.args,
                           node.var, tuple(sorted(pairs)))
    out.trace.append(ReplicateMove(path, index))
    return out


def legal_moves(cfg: Configuration) -> list[MoveOption]:
    """Every currently legal move point, in a fixed traversal order.

    Quantifiers stay inactive while an ancestor quantifier or an
    unreplicated recurrence shields them; replicas open a recurrence up.
    Shared nodes are read-only, so the walk does not enter them.  The
    options come from the region cache (module docstring).
    """
    return [opt for _key, options, _dead in service_regions(cfg)
            for opt in options]


def service_regions(cfg: Configuration) -> list:
    """The (key, options, dead) entry of every service's region, in service
    order.
    An entry missing from the cache is made now, by walking the region."""
    regions = cfg.regions
    entries = []
    for name, root in cfg.roots.items():
        entry = regions.get(root)
        if entry is None:
            output = name == cfg.output
            entry = _fill_region(cfg, root, name, "output" if output else "input",
                                 1 if output else -1, ())
        entries.append(entry)
    return entries


def _fill_region(cfg, root, name, side, sign, segs):
    """Walk the region at root into the cache, together with every replica
    region inside it whose entry is missing, and return its entry.  Each
    region's walk is a generator that yields the replica regions it needs
    first, so nested recurrences cost no interpreter frames."""
    walks = [_walk_region(cfg, root, name, side, sign, segs)]
    while walks:
        need = next(walks[-1], None)
        if need is None:
            walks.pop()
        else:
            walks.append(_walk_region(cfg, *need))
    return cfg.regions[root]


def _walk_region(cfg, root, name, side, sign, segs):
    """Walk one region in preorder, on an explicit stack, and cache its
    (key, options, dead).

    The key is flat: one (op, pred, var, args, number of children) item per
    node in preorder, and a recurrence's item adds the sorted keys of its
    replicas.  Global variables are renamed in first-occurrence order within
    the region.  A nested key would be as deep as the formula, and comparing
    two equal ones recurses once per level; a flat one nests only where
    recurrences do.  Options are collected in preorder while the walk is
    active, that is, not below a quantifier, inside a recurrence's
    unreplicated body, or at or below a shared node.  A recurrence appends
    its replicas' options in index order.  An input service's root
    recurrence and its unreplicated body are not content, so only its
    replicas can make that region dead.  Before a recurrence's replicas are
    read, each replica region without an entry is yielded as the arguments
    of its own walk; the caller fills it and resumes."""
    nodes, shared, regions = cfg.nodes, cfg.shared, cfg.regions
    names: dict = {}
    key: list = []
    options: list[MoveOption] = []
    content = side == "input" and not (root == cfg.roots[name]
                                       and nodes[root].op == "recur")
    dead = False

    # frames are (node id, sign, path segments or None when inactive)
    stack = [(root, sign, segs)]
    while stack:
        nid, sign, segs = stack.pop()
        node = nodes[nid]
        op, kids = node.op, node.children
        item = (op, node.pred or "", node.var or "",
                tuple(_canon_term(t, names) for t in node.args), len(kids))
        if op == "atom":  # a leaf, which offers no move
            key.append(item)
            continue
        if content and op in ("recur", "or", "neg"):
            dead = True
        if segs is not None and nid in shared:
            segs = None
        if op == "recur":
            reps = node.replicas
            for idx, rep in reps:
                if rep not in regions:
                    yield (rep, name, side, sign,
                           None if segs is None else segs + (idx,))
            entries = [regions[rep] for _idx, rep in reps]
            item += (tuple(sorted(e[0] for e in entries)),)
            if (side == "output" and reps) or any(e[2] for e in entries):
                dead = True
        key.append(item)
        if segs is None:
            stack.extend((c, sign, None) for c in reversed(kids))
        elif op in ("and", "or", "implies"):
            for i in range(len(kids), 0, -1):
                flip = op == "implies" and i == 1
                stack.append((kids[i - 1], -sign if flip else sign,
                              segs + (i,)))
        elif op == "neg":
            stack.append((kids[0], -sign, segs + (1,)))
        elif op in ("all", "exists"):
            kind = "write" if _is_machine(op, sign) else "read"
            options.append(MoveOption(kind, Path(name, segs), side))
            stack.append((kids[0], sign, None))
        else:  # recur
            if sign > 0 and not reps and kids[0] not in shared:
                body = nodes[kids[0]]
                if body.op in ("all", "exists") and _is_machine(body.op, sign):
                    options.append(MoveOption("write", Path(name, segs), side,
                                              collapse=True))
            options.append(MoveOption("replicate", Path(name, segs), side,
                                      index=reps[-1][0] + 1 if reps else 1))
            for entry in entries:
                options += entry[1]
            stack.append((kids[0], sign, None))
    regions[root] = (tuple(key), options, dead)


def _canon_term(t, names):
    """A term's key part: its symbols in preorder, an application as "a",
    its function and its arity, and global variables renamed through
    `names` in first-occurrence order.  Flat, like the region key, and
    built on an explicit stack, so a term's depth costs no frames."""
    if not isinstance(t, App):
        return _canon_leaf(t, names)
    flat: list = []
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            flat += ("a", t.fn, len(t.args))
            stack.extend(reversed(t.args))
        else:
            flat += _canon_leaf(t, names)
    return tuple(flat)


def _canon_leaf(t, names):
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
    return ("?", repr(t))


def apply_move(cfg: Configuration, move: Move) -> Configuration:
    """Apply a recorded move; a fresh write must allocate the variable the
    record names."""
    if isinstance(move, ReadMove):
        return apply_read(cfg, move.path, move.value, move.var)
    if isinstance(move, ReplicateMove):
        return replicate(cfg, move.path, move.index)
    if not isinstance(move, WriteMove):
        raise ConfigError(f"unknown move {move!r}")
    out = apply_write(cfg, move.path, term=move.term)
    allocated = out.trace[-1].gvar
    if move.gvar is not None and allocated != move.gvar:
        raise ConfigError(f"replay mismatch: expected {move.gvar}, "
                          f"allocated {allocated}")
    return out


def replay(table: DirectoryTable, moves, input_names=None,
           output_name=None) -> Configuration:
    """Fold a recorded trace over a fresh configuration."""
    cfg = init_configuration(table, input_names, output_name)
    for move in moves:
        cfg = apply_move(cfg, move)
    return cfg
