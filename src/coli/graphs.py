"""Formula graphs: formulas as explicit node stores so subformulas can be shared.

A pure copy expansion is a tree; a shared directory reference makes the
referenced node the child of several parents (in-degree > 1), which is how
cirquent-style sharing is represented.  A game configuration's node store
holds its services' expansions side by side; it records these nodes once, as
they are expanded into it, and treats each as read-only.
"""

from __future__ import annotations

from . import formulas as F
from .errors import ColiError
from .records import Record, Value


class GNode(Value):
    """`op` is atom | neg | and | or | implies | all | exists | recur;
    `replicas` holds a recurrence's (index, root) pairs, by index."""
    __slots__ = ("op", "children", "pred", "args", "var", "replicas")

    def __init__(self, op: str, children: tuple = (), pred: str | None = None,
                 args: tuple = (), var: str | None = None, replicas: tuple = ()):
        put_op, put_children, put_pred, put_args, put_var, put_replicas = self._setters
        put_op(self, op)
        put_children(self, children)
        put_pred(self, pred)
        put_args(self, args)
        put_var(self, var)
        put_replicas(self, replicas)

    def label(self) -> str:
        if self.op == "atom":
            return F.pretty(F.Atom(self.pred, self.args))
        glyph = F.GLYPHS[_FORMULAS[self.op]]
        return f"{glyph}{self.var}" if self.op in ("all", "exists") else glyph


# the node op of each formula class other than atoms and references, and back
OPS = {F.Neg: "neg", F.And: "and", F.Or: "or", F.Implies: "implies",
       F.Recur: "recur", F.All: "all", F.Exists: "exists"}
_FORMULAS = {op: cls for cls, op in OPS.items()}


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


class FormulaGraph(Record):
    __slots__ = ("nodes", "root")

    def __init__(self, nodes: dict | None = None, root: int = -1):
        self._setfields({} if nodes is None else nodes, root)

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
            kids = [built[c] for c in node.children]
            if node.op == "atom":
                built[top] = F.Atom(node.pred, node.args)
            elif node.op in ("all", "exists"):
                built[top] = _FORMULAS[node.op](node.var, *kids)
            elif node.op in _FORMULAS:
                built[top] = _FORMULAS[node.op](*kids)
            else:
                raise ColiError(f"unknown node op {node.op!r}")
        return built[root]

    def in_degrees(self) -> dict:
        degrees = {nid: 0 for nid in preorder(self.nodes, [self.root])}
        for nid in list(degrees):
            for c in self.nodes[nid].children:
                degrees[c] += 1
        return degrees

    def listing(self) -> str:
        """Stable plain-text rendering with node ids and in-degrees."""
        degrees = self.in_degrees()
        lines = [f"root n{self.root}"]
        for nid in preorder(self.nodes, [self.root]):
            node = self.nodes[nid]
            kids = ",".join(f"n{c}" for c in node.children)
            suffix = f" children=[{kids}]" if kids else ""
            lines.append(f"n{nid}: {node.label()} in={degrees[nid]}{suffix}")
        return "\n".join(lines)

