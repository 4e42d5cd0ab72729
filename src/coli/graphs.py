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
    replicas: tuple = ()  # (index, root) pairs of a recurrence, by index

    def label(self) -> str:
        if self.op == "atom":
            return F.pretty(F.Atom(self.pred, self.args))
        if self.op in ("all", "exists"):
            glyph = "@" if self.op == "all" else "#"
            return f"{glyph}{self.var}"
        return {"neg": "~", "and": "/\\", "or": "\\/", "implies": "->",
                "recur": "$"}[self.op]


_CONNECTIVES = {"neg": F.Neg, "and": F.And, "or": F.Or, "implies": F.Implies,
                "recur": F.Recur}
_BINDERS = {"all": F.All, "exists": F.Exists}


def preorder(nodes: dict, roots):
    """Yield the node ids reachable from roots, depth-first preorder, each once.

    A node's children are visited left to right, then a recurrence's replicas
    in index order.  The walk keeps an explicit stack, so depth costs no
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
        node = nodes[nid]
        if node.replicas:
            stack.extend(root for _idx, root in reversed(node.replicas))
        stack.extend(reversed(node.children))


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
        """Unfold the graph below nid (default: root) into a formula tree.

        The walk is postorder on an explicit stack, so depth costs no
        interpreter frames; a shared node is built once and its formula reused.
        """
        nodes, built = self.nodes, {}
        root = self.root if nid is None else nid
        stack = [root]
        while stack:
            top = stack[-1]
            if top in built:
                stack.pop()
                continue
            node = nodes[top]
            missing = [c for c in node.children if c not in built]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            if node.op == "atom":
                built[top] = F.Atom(node.pred, node.args)
            elif node.op in _BINDERS:
                built[top] = _BINDERS[node.op](node.var, built[node.children[0]])
            elif node.op in _CONNECTIVES:
                built[top] = _CONNECTIVES[node.op](*(built[c] for c in node.children))
            else:
                raise ColiError(f"unknown node op {node.op!r}")
        return built[root]

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

