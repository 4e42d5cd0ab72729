"""First-order terms: naturals, constants, variables and arithmetic applications.

Four variable-like things live in terms and they are kept distinct:

* ``Var``    -- a bound variable (lowercase, bound by a choice quantifier)
               or a directory parameter (uppercase, bound by a clause pattern).
* ``Const``  -- a rigid lowercase symbol.
* ``GVar``   -- a global variable (W1, W2, ...) introduced by write moves and
               resolved by unification; never written in source text.
* ``Num``    -- a natural-number literal.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Num:
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("naturals only")


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class GVar:
    name: str


@dataclass(frozen=True)
class App:
    fn: str
    args: tuple


Term = Num | Const | Var | GVar | App


def app(fn, *args):
    return App(fn, tuple(args))


def term_vars(t: Term) -> set:
    """All Var names occurring in t."""
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, App):
        out = set()
        for a in t.args:
            out |= term_vars(a)
        return out
    return set()


def term_gvars(t: Term) -> set:
    """All GVar names occurring in t."""
    if isinstance(t, GVar):
        return {t.name}
    if isinstance(t, App):
        out = set()
        for a in t.args:
            out |= term_gvars(a)
        return out
    return set()


def subst_var(t: Term, name: str, value: Term) -> Term:
    """Replace every occurrence of Var(name) in t by value."""
    if isinstance(t, Var) and t.name == name:
        return value
    if isinstance(t, App):
        return App(t.fn, tuple(subst_var(a, name, value) for a in t.args))
    return t


def subst_gvar(t: Term, name: str, value: Term) -> Term:
    if isinstance(t, GVar) and t.name == name:
        return value
    if isinstance(t, App):
        return App(t.fn, tuple(subst_gvar(a, name, value) for a in t.args))
    return t


def subst_const(t: Term, name: str, value: Term) -> Term:
    if isinstance(t, Const) and t.name == name:
        return value
    if isinstance(t, App):
        return App(t.fn, tuple(subst_const(a, name, value) for a in t.args))
    return t


def is_ground(t: Term) -> bool:
    """True when t contains no Var and no GVar."""
    if isinstance(t, (Var, GVar)):
        return False
    if isinstance(t, App):
        return all(is_ground(a) for a in t.args)
    return True


# str() refuses an int of more than 4,300 digits by default, so larger ones
# are written out in chunks of _CHUNK_DIGITS digits
_CHUNK_DIGITS = 4000
_CHUNK = 10 ** _CHUNK_DIGITS


def _decimal(n: int) -> str:
    """n in decimal, at any size, without changing interpreter-wide limits."""
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(str(n))
    return "".join(reversed(chunks))


# Precedence: '+' chains loosest, '*' tighter, everything else is atomic.
# Both associate to the left, so a child is parenthesized when it binds
# looser than its context, and a right child of equal precedence is too.
_PREC = {"+": 1, "*": 2}


def pretty_term(t: Term, prec: int = 0) -> str:
    if isinstance(t, Num):
        return _decimal(t.value)
    if isinstance(t, (Const, Var, GVar)):
        return t.name
    if isinstance(t, App):
        if t.fn in ("+", "*") and len(t.args) == 2:
            p = _PREC[t.fn]
            left = pretty_term(t.args[0], p)
            right = pretty_term(t.args[1], p + 1)
            text = f"{left}{t.fn}{right}"
            return f"({text})" if p < prec else text
        inner = ",".join(pretty_term(a) for a in t.args)
        return f"{t.fn}({inner})"
    raise TypeError(f"not a term: {t!r}")
