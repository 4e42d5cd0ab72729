"""Formula graphs: formulas as explicit node stores so subformulas can be shared.

A pure copy expansion is a tree; a shared directory reference makes the
referenced node the child of several parents (in-degree > 1), which is how
cirquent-style sharing is represented.  A game configuration records these
nodes once, when it imports the graph, and treats each as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import formulas as F
from .errors import ColiError


@dataclass(frozen=True)
class GNode:
    op: str  # atom | neg | and | or | implies | all | exists | recur
    children: tuple = ()
    pred: str | None = None
    args: tuple = ()
    var: str | None = None

    def label(self) -> str:
        if self.op == "atom":
            return F.pretty(F.Atom(self.pred, self.args))
        if self.op in ("all", "exists"):
            glyph = "@" if self.op == "all" else "#"
            return f"{glyph}{self.var}"
        return {"neg": "~", "and": "/\\", "or": "\\/", "implies": "->",
                "recur": "$"}[self.op]


def preorder(nodes: dict, roots, replicas: dict | None = None):
    """Yield the node ids reachable from roots, depth-first preorder, each once.

    Children are visited left to right; with a replica map (recurrence id ->
    {index: replica root}), a recurrence's replicas follow its children in
    index order.  The walk keeps an explicit stack, so depth costs no
    interpreter frames.
    """
    seen: set[int] = set()
    stack = list(roots)
    stack.reverse()
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        yield nid
        kids = nodes[nid].children
        reps = replicas.get(nid) if replicas else None
        if reps:
            kids = kids + tuple(reps[idx] for idx in sorted(reps))
        stack.extend(reversed(kids))


@dataclass
class FormulaGraph:
    nodes: dict = field(default_factory=dict)
    root: int = -1
    next_id: int = 0

    def add(self, node: GNode) -> int:
        nid = self.next_id
        self.next_id += 1
        self.nodes[nid] = node
        return nid

    def to_formula(self, nid: int | None = None) -> F.Formula:
        """Unfold the graph below nid (default: root) into a formula tree."""
        node = self.nodes[self.root if nid is None else nid]
        if node.op == "atom":
            return F.Atom(node.pred, node.args)
        kids = tuple(self.to_formula(c) for c in node.children)
        if node.op == "neg":
            return F.Neg(kids[0])
        if node.op == "and":
            return F.And(kids[0], kids[1])
        if node.op == "or":
            return F.Or(kids[0], kids[1])
        if node.op == "implies":
            return F.Implies(kids[0], kids[1])
        if node.op == "all":
            return F.All(node.var, kids[0])
        if node.op == "exists":
            return F.Exists(node.var, kids[0])
        if node.op == "recur":
            return F.Recur(kids[0])
        raise ColiError(f"unknown node op {node.op!r}")

    def reachable(self, roots=None) -> list:
        """Node ids reachable from the given roots (default: the root), preorder,
        visiting each shared node once."""
        return list(preorder(self.nodes, [self.root] if roots is None else roots))

    def in_degrees(self, roots=None) -> dict:
        degrees = {nid: 0 for nid in self.reachable(roots)}
        for nid in list(degrees):
            for c in self.nodes[nid].children:
                degrees[c] += 1
        return degrees

    def listing(self) -> str:
        """Stable plain-text rendering with node ids and in-degrees."""
        degrees = self.in_degrees()
        lines = [f"root n{self.root}"]
        for nid in self.reachable():
            node = self.nodes[nid]
            kids = ",".join(f"n{c}" for c in node.children)
            suffix = f" children=[{kids}]" if kids else ""
            lines.append(f"n{nid}: {node.label()} in={degrees[nid]}{suffix}")
        return "\n".join(lines)

