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

from dataclasses import dataclass

from .terms import pretty_term


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple = ()


@dataclass(frozen=True)
class Neg:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class All:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Recur:
    body: "Formula"


@dataclass(frozen=True)
class DirRef:
    name: str
    args: tuple = ()
    copy: bool = False


Formula = Atom | Neg | And | Or | Implies | All | Exists | Recur | DirRef

_BINARY = {And: "/\\", Or: "\\/", Implies: "->"}


def children(f: Formula) -> tuple:
    """Child subformulas, in address order (path segments count from 1)."""
    if isinstance(f, (And, Or, Implies)):
        return (f.left, f.right)
    if isinstance(f, (Neg, All, Exists, Recur)):
        return (f.body,)
    return ()


def with_children(f: Formula, kids: tuple) -> Formula:
    if isinstance(f, (And, Or, Implies)):
        return type(f)(kids[0], kids[1])
    if isinstance(f, Neg):
        return Neg(kids[0])
    if isinstance(f, (All, Exists)):
        return type(f)(f.var, kids[0])
    if isinstance(f, Recur):
        return Recur(kids[0])
    return f


# Precedence levels for printing; parenthesize any child that binds
# looser than its context, and right children of the left-associative
# binary connectives at equal level.
_LEVEL = {Implies: 1, Or: 2, And: 3}
_UNARY_LEVEL = 4


def pretty(f: Formula, level: int = 0) -> str:
    if isinstance(f, Atom):
        if not f.args:
            return f.pred
        return f"{f.pred}({','.join(pretty_term(t) for t in f.args)})"
    if isinstance(f, DirRef):
        bang = "!" if f.copy else ""
        if not f.args:
            return f"{bang}/{f.name}"
        return f"{bang}/{f.name}({','.join(pretty_term(t) for t in f.args)})"
    if isinstance(f, Neg):
        return _wrap(f"~{pretty(f.body, _UNARY_LEVEL)}", _UNARY_LEVEL, level)
    if isinstance(f, All):
        return _wrap(f"@{f.var}. {pretty(f.body, _UNARY_LEVEL)}", _UNARY_LEVEL, level)
    if isinstance(f, Exists):
        return _wrap(f"#{f.var}. {pretty(f.body, _UNARY_LEVEL)}", _UNARY_LEVEL, level)
    if isinstance(f, Recur):
        return _wrap(f"${pretty(f.body, _UNARY_LEVEL)}", _UNARY_LEVEL, level)
    mine = _LEVEL[type(f)]
    op = _BINARY[type(f)]
    if isinstance(f, Implies):
        # right associative: the left child needs strictly tighter binding
        left = pretty(f.left, mine + 1)
        right = pretty(f.right, mine)
    else:
        left = pretty(f.left, mine)
        right = pretty(f.right, mine + 1)
    return _wrap(f"{left} {op} {right}", mine, level)


def _wrap(text: str, mine: int, ctx: int) -> str:
    return f"({text})" if mine < ctx else text
