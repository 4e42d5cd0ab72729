"""Formula ASTs: parallel connectives, choice quantifiers, recurrence, directory refs.

The parser builds these trees and the printer renders them; expansion turns
them into formula graphs, which is what the game is played on.

Bottom-up walks of formula trees and node graphs (``pretty``, graph
unfolding, replica copies, substitution and closure's bound) go through one
explicit-stack postorder fold, ``fold``, so depth costs them no frames.

Concrete syntax (see parser.py):

    ~F        negation
    F /\\ G    parallel conjunction
    F \\/ G    parallel disjunction
    F -> G    implication (right associative)
    @x. F     choice-all: the quantifier's opponent picks x
    #x. F     choice-exists: the quantifier's owner picks x
    $F        replicable service (branching recurrence)
    /m, !/m   shared / copied directory reference
"""

from __future__ import annotations

from .records import Value
from .terms import pretty_term


class Atom(Value):
    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple = ()):
        put_pred, put_args = self._setters
        put_pred(self, pred)
        put_args(self, args)

    def __eq__(self, other):
        return (other.__class__ is Atom and self.pred == other.pred
                and self.args == other.args)

    def __hash__(self):
        return hash((self.pred, self.args))


class _Composite(Value):
    """A connective, quantifier or recurrence, compared and hashed on an
    explicit stack, so a formula's depth costs no interpreter frames."""
    __slots__ = ()

    def __eq__(self, other):
        stack = [(self, other)]
        while stack:
            f, g = stack.pop()
            if f is g:
                continue
            if f.__class__ is not g.__class__:
                return False
            if not isinstance(f, _Composite):
                if f != g:
                    return False
            elif isinstance(f, _Quantifier) and f.var != g.var:
                return False
            else:
                stack += zip(children(f), children(g))
        return True

    def __hash__(self):
        return fold(self, children, _hash_node)


def _hash_node(f, kids: tuple) -> int:
    if not isinstance(f, _Composite):
        return hash(f)
    return hash((f.__class__, getattr(f, "var", None), kids))


class _Unary(_Composite):
    __slots__ = ("body",)

    def __init__(self, body: "Formula"):
        self._setters[0](self, body)


class Neg(_Unary):
    __slots__ = ()


class Recur(_Unary):
    __slots__ = ()


class _Binary(_Composite):
    __slots__ = ("left", "right")

    def __init__(self, left: "Formula", right: "Formula"):
        put_left, put_right = self._setters
        put_left(self, left)
        put_right(self, right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class _Quantifier(_Composite):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: "Formula"):
        put_var, put_body = self._setters
        put_var(self, var)
        put_body(self, body)


class All(_Quantifier):
    __slots__ = ()


class Exists(_Quantifier):
    __slots__ = ()


class DirRef(Value):
    __slots__ = ("name", "args", "copy")

    def __init__(self, name: str, args: tuple = (), copy: bool = False):
        put_name, put_args, put_copy = self._setters
        put_name(self, name)
        put_args(self, args)
        put_copy(self, copy)


Formula = Atom | Neg | And | Or | Implies | All | Exists | Recur | DirRef

GLYPHS = {Neg: "~", Recur: "$", All: "@", Exists: "#", And: "/\\", Or: "\\/",
          Implies: "->"}


def children(f: Formula) -> tuple:
    """Child subformulas, in address order (path segments count from 1)."""
    if isinstance(f, _Binary):
        return (f.left, f.right)
    if isinstance(f, (_Unary, _Quantifier)):
        return (f.body,)
    return ()


def with_children(f: Formula, kids: tuple) -> Formula:
    if isinstance(f, (_Binary, _Unary)):
        return type(f)(*kids)
    if isinstance(f, _Quantifier):
        return type(f)(f.var, kids[0])
    return f


def fold(root, children, make):
    """make(node, results) at every node below root, children first and left
    to right, where results holds make's values at children(node); returns
    make's value at root.  The walk keeps an explicit stack, so depth costs
    no interpreter frames.  A walk over a graph with shared nodes visits one
    once when children returns () for a node it has already made."""
    done: list = []  # make's values whose parent is still open
    stack = [(root, None)]
    while stack:
        node, kids = stack.pop()
        if kids is None and (kids := children(node)):
            stack.append((node, kids))
            stack += [(c, None) for c in reversed(kids)]
            continue
        cut = len(done) - len(kids)
        done[cut:] = [make(node, tuple(done[cut:]))]
    return done[0]


# Precedence levels for printing; parenthesize any child that binds looser
# than its context, and right children of the left-associative binary
# connectives at equal level.  Atoms, at the prefix level, never need it.
_LEVEL = {Implies: 1, Or: 2, And: 3}
_UNARY_LEVEL = 4


def pretty(f: Formula) -> str:
    return fold(f, children, _pretty_node)[0]


def _pretty_node(f: Formula, kids: tuple) -> tuple:
    """f's text and precedence level, from its children's."""
    if isinstance(f, (Atom, DirRef)):
        head = f.pred if isinstance(f, Atom) else f"{'!' if f.copy else ''}/{f.name}"
        text = f"{head}({','.join(map(pretty_term, f.args))})" if f.args else head
        return text, _UNARY_LEVEL
    if isinstance(f, (_Unary, _Quantifier)):
        bound = f"{f.var}. " if isinstance(f, _Quantifier) else ""
        return f"{GLYPHS[type(f)]}{bound}{_wrap(kids[0], _UNARY_LEVEL)}", _UNARY_LEVEL
    mine = _LEVEL[type(f)]
    # Implies is right associative: its left child needs strictly tighter binding
    left_at, right_at = (mine + 1, mine) if isinstance(f, Implies) else (mine, mine + 1)
    return f"{_wrap(kids[0], left_at)} {GLYPHS[type(f)]} {_wrap(kids[1], right_at)}", mine


def _wrap(kid: tuple, ctx: int) -> str:
    return f"({kid[0]})" if kid[1] < ctx else kid[0]
