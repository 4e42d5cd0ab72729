"""Formula ASTs: parallel connectives, choice quantifiers, recurrence, directory refs.

The parser builds these trees and the printer renders them; expansion turns
them into formula graphs, which is what the game is played on.

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


class _Unary(Value):
    __slots__ = ("body",)

    def __init__(self, body: "Formula"):
        self._setters[0](self, body)


class Neg(_Unary):
    __slots__ = ()


class Recur(_Unary):
    __slots__ = ()


class _Binary(Value):
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


class _Quantifier(Value):
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


# Precedence levels for printing; parenthesize any child that binds
# looser than its context, and right children of the left-associative
# binary connectives at equal level.
_LEVEL = {Implies: 1, Or: 2, And: 3}
_UNARY_LEVEL = 4


def pretty(f: Formula, level: int = 0) -> str:
    if isinstance(f, (Atom, DirRef)):
        head = f.pred if isinstance(f, Atom) else f"{'!' if f.copy else ''}/{f.name}"
        return f"{head}({','.join(map(pretty_term, f.args))})" if f.args else head
    if isinstance(f, (_Unary, _Quantifier)):
        bound = f"{f.var}. " if isinstance(f, _Quantifier) else ""
        body = pretty(f.body, _UNARY_LEVEL)
        return _wrap(f"{GLYPHS[type(f)]}{bound}{body}", _UNARY_LEVEL, level)
    mine = _LEVEL[type(f)]
    # Implies is right associative: its left child needs strictly tighter binding
    left_at, right_at = (mine + 1, mine) if isinstance(f, Implies) else (mine, mine + 1)
    left, right = pretty(f.left, left_at), pretty(f.right, right_at)
    return _wrap(f"{left} {GLYPHS[type(f)]} {right}", mine, level)


def _wrap(text: str, mine: int, ctx: int) -> str:
    return f"({text})" if mine < ctx else text
