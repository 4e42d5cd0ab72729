"""The live game state: expanded services, polarity-aware moves, replication.

Services are kept in one node store so that moves can rewrite a single node
(peeling a quantifier, adding a replica) while leaving every other address
stable.  A recurrence node lists its replicas as (index, root) pairs, and a
path's integer segment at a recurrence names a replica.  A node
with in-degree > 1 in a service's expansion is a shared (cirquent) node;
the configuration records these once, when it imports the services.  A
shared node and everything below it are read-only: moves never enter one
(`legal_moves` does not list them and a path into one raises
`SharedNodeError`), and replicas point at shared nodes instead of copying
them.  A shared node is ground, because only ground references are expanded,
so substitutions pass it by.

Polarity is positional: on the output side ``@`` belongs to the environment
and ``#`` to the machine; the input side flips, as does descending through
``~`` or the left side of ``->``.

Configurations are values: every operation returns a new configuration and
appends the move it performed to the trace, so a trace replayed from the
initial configuration reproduces the final one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import formulas as F
from .directories import DirectoryTable, expand
from .errors import BoundError, ConfigError, SharedNodeError
from .graphs import FormulaGraph, GNode
from .terms import GVar, Num, Term, pretty_term, subst_var, term_vars

DEFAULT_REPLICA_LIMIT = 256


@dataclass(frozen=True)
class Path:
    dir: str
    segments: tuple = ()

    def __str__(self):
        return "/" + self.dir + "".join(f".{s}" for s in self.segments)


@dataclass(frozen=True)
class ReadMove:
    path: Path
    value: int
    var: str


@dataclass(frozen=True)
class WriteMove:
    path: Path
    gvar: str | None = None  # fresh variable writes
    term: Term | None = None  # concrete-term writes (prover candidates)


@dataclass(frozen=True)
class ReplicateMove:
    path: Path
    index: int


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


@dataclass(frozen=True)
class MoveOption:
    """A currently legal move point (values left to whoever moves)."""
    kind: str  # read | write | replicate
    path: Path
    side: str  # input | output
    index: int | None = None  # next replica index for replicate options
    collapse: bool = False  # write that commits an output recurrence


class Configuration:
    """Node ids are dense and never freed, so the next one is len(nodes);
    the fresh global variables so far are W1 .. W{next_gvar - 1}."""

    def __init__(self):
        self.nodes: dict[int, GNode] = {}
        self.roots: dict[str, int] = {}
        self.output: str = ""
        self.shared: frozenset[int] = frozenset()
        self.trace: list[Move] = []
        self.next_gvar = 1
        self.replica_limit = DEFAULT_REPLICA_LIMIT

    def _clone(self) -> "Configuration":
        out = Configuration.__new__(Configuration)
        out.nodes = dict(self.nodes)
        out.roots = dict(self.roots)
        out.output = self.output
        out.shared = self.shared
        out.trace = list(self.trace)
        out.next_gvar = self.next_gvar
        out.replica_limit = self.replica_limit
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

    def _import_graph(self, graph: FormulaGraph) -> dict:
        """Copy the graph's nodes into the store; returns the renumbering."""
        mapping = {}
        for old in sorted(graph.nodes):  # children precede parents
            node = graph.nodes[old]
            mapping[old] = len(self.nodes)
            self.nodes[mapping[old]] = _with_children(
                node, tuple(mapping[c] for c in node.children))
        return mapping


def init_configuration(table: DirectoryTable, input_names=None,
                       output_name: str | None = None,
                       replica_limit: int = DEFAULT_REPLICA_LIMIT) -> Configuration:
    """Expand the named services into a fresh configuration with empty trace."""
    output_name = output_name or table.query
    if not output_name:
        raise ConfigError("no output service designated (missing 'query /name')")
    if input_names is None:
        input_names = [n for n in table.input_names() if n != output_name]
    cfg = Configuration()
    cfg.replica_limit = replica_limit
    cfg.output = output_name
    shared: set[int] = set()
    for name in list(input_names) + [output_name]:
        if name not in table.defs:
            raise ConfigError(f"undefined service /{name}")
        graph = expand(table, F.DirRef(name))
        mapping = cfg._import_graph(graph)
        cfg.roots[name] = mapping[graph.root]
        shared.update(mapping[nid] for nid, degree in graph.in_degrees().items()
                      if degree > 1)
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
    if path.dir not in cfg.roots:
        raise ConfigError(f"unknown service in path {path}")
    cur = cfg.roots[path.dir]
    sign = 1 if path.dir == cfg.output else -1
    consumed: list = []
    for seg in path.segments:
        if not isinstance(seg, int):
            raise ConfigError(f"unresolved path segment {seg!r} in {path}")
        node = cfg.nodes[cur]
        if node.op == "recur":
            if seg < 1:
                raise ConfigError(f"replica indices start at 1: {path}")
            here = Path(path.dir, tuple(consumed))
            reps = dict(node.replicas)
            if seg not in reps:
                if not create:
                    raise ConfigError(f"replica {seg} of {here} does not exist")
                cfg = replicate(cfg, here, seg)
                reps = dict(cfg.nodes[cur].replicas)
            cur = reps[seg]
        else:
            kids = node.children
            if not 1 <= seg <= len(kids):
                raise ConfigError(f"no child {seg} under {path} "
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
    return cfg, cur, sign


def _with_children(node: GNode, kids: tuple) -> GNode:
    """node with the given children.  Nodes are immutable, so one whose
    children stay the same (a leaf, say) is shared rather than rebuilt."""
    return node if kids == node.children else replace(node, children=kids)


def _is_machine(op: str, sign: int) -> bool:
    return (op == "exists") == (sign > 0)


# node rewriting -------------------------------------------------------

def _subst_nodes(cfg: Configuration, nid: int, var: str, value: Term):
    """In-place substitution of value for the free var below nid."""
    if nid in cfg.shared:
        return
    node = cfg.nodes[nid]
    if node.op == "atom":
        if any(var in term_vars(t) for t in node.args):
            cfg.nodes[nid] = replace(node, args=tuple(subst_var(t, var, value)
                                                      for t in node.args))
        return
    if node.op in ("all", "exists") and node.var == var:
        return
    for c in node.children:
        _subst_nodes(cfg, c, var, value)


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
    cfg, nid, sign = resolve(cfg, path, create=True)
    node = cfg.nodes[nid]
    if node.op not in ("all", "exists"):
        raise ConfigError(f"read needs a choice quantifier at {path}, "
                          f"found {node.label()}")
    if _is_machine(node.op, sign):
        raise ConfigError(f"wrong polarity: {path} is a machine quantifier")
    out = cfg._clone()
    _peel(out, nid, Num(value))
    out.trace.append(ReadMove(path, value, var))
    return out


def peel_env_symbolic(cfg: Configuration, path: Path, value: Term):
    """Peel an environment quantifier with a symbolic constant (proof search
    only; records no move).  Returns (configuration, bound variable name)."""
    cfg, nid, sign = resolve(cfg, path)
    node = cfg.nodes[nid]
    if node.op not in ("all", "exists") or _is_machine(node.op, sign):
        raise ConfigError(f"no environment quantifier at {path}")
    out = cfg._clone()
    _peel(out, nid, value)
    return out, node.var


def apply_write(cfg: Configuration, path: Path, term: Term | None = None) -> Configuration:
    """Machine resolves its choice quantifier at path.

    With `term` omitted a fresh global variable is introduced (its value is
    settled later by unification).  At an output-side recurrence that has no
    replicas yet, a write commits to a single copy: the recurrence collapses
    and the write applies to its principal quantifier.
    """
    cfg, nid, sign = resolve(cfg, path, create=True)
    node = cfg.nodes[nid]
    out = cfg._clone()
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
    cfg, nid, _sign = resolve(cfg, path)
    node = cfg.nodes[nid]
    if node.op != "recur":
        raise ConfigError(f"{path} is not a recurrence")
    if index < 1:
        raise ConfigError(f"replica indices start at 1, got {index}")
    if index in dict(node.replicas):
        raise ConfigError(f"replica {index} of {path} already exists")
    if len(node.replicas) >= cfg.replica_limit or index > cfg.replica_limit:
        raise BoundError(f"replica limit {cfg.replica_limit} exceeded at {path}")
    out = cfg._clone()

    def copy(old: int) -> int:
        if old in out.shared:
            return old
        n = out.nodes[old]
        kids = tuple(copy(c) for c in n.children)
        new = len(out.nodes)
        out.nodes[new] = _with_children(n, kids)
        return new

    pairs = node.replicas + ((index, copy(node.children[0])),)
    out.nodes[nid] = replace(node, replicas=tuple(sorted(pairs)))
    out.trace.append(ReplicateMove(path, index))
    return out


def legal_moves(cfg: Configuration) -> list[MoveOption]:
    """Every currently legal move point, in a fixed traversal order.

    Quantifiers stay inactive while an ancestor quantifier or an
    unreplicated recurrence shields them; replicas open a recurrence up.
    Shared nodes are read-only, so the walk does not enter them.
    """
    options: list[MoveOption] = []

    def walk(name, side, nid, sign, segs):
        if nid in cfg.shared:
            return
        node = cfg.nodes[nid]
        if node.op in ("and", "or", "implies"):
            for i, c in enumerate(node.children, start=1):
                flip = node.op == "implies" and i == 1
                walk(name, side, c, -sign if flip else sign, segs + (i,))
        elif node.op == "neg":
            walk(name, side, node.children[0], -sign, segs + (1,))
        elif node.op in ("all", "exists"):
            kind = "write" if _is_machine(node.op, sign) else "read"
            options.append(MoveOption(kind, Path(name, segs), side))
        elif node.op == "recur":
            reps = node.replicas
            if sign > 0 and not reps and node.children[0] not in cfg.shared:
                body = cfg.nodes[node.children[0]]
                if body.op in ("all", "exists") and _is_machine(body.op, sign):
                    options.append(MoveOption("write", Path(name, segs), side,
                                              collapse=True))
            next_index = reps[-1][0] + 1 if reps else 1
            options.append(MoveOption("replicate", Path(name, segs), side,
                                      index=next_index))
            for idx, rep in reps:
                walk(name, side, rep, sign, segs + (idx,))

    for name, root in cfg.roots.items():
        output = name == cfg.output
        walk(name, "output" if output else "input", root, 1 if output else -1, ())
    return options


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
           output_name=None, replica_limit=DEFAULT_REPLICA_LIMIT) -> Configuration:
    """Fold a recorded trace over a fresh configuration."""
    cfg = init_configuration(table, input_names, output_name, replica_limit)
    for move in moves:
        cfg = apply_move(cfg, move)
    return cfg
