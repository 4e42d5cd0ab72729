"""First-order terms (naturals, constants, variables, arithmetic applications)
and ground arithmetic: ``eval_ground`` reduces ground s/+/* to numerals.

Four variable-like things live in terms and they are kept distinct:

* ``Var``    -- a bound variable (lowercase, bound by a choice quantifier)
               or a directory parameter (uppercase, bound by a clause pattern).
* ``Const``  -- a rigid lowercase symbol.
* ``GVar``   -- a global variable (W1, W2, ...) introduced by write moves and
               resolved by unification; never written in source text.
* ``Num``    -- a natural-number literal.
"""

from __future__ import annotations

from .records import Value


class Num(Value):
    __slots__ = ("value",)

    def __init__(self, value: int):
        if value < 0:
            raise ValueError("naturals only")
        self._setters[0](self, value)

    def __eq__(self, other):
        return other.__class__ is Num and self.value == other.value

    def __hash__(self):
        return hash((self.value,))


class _Name(Value):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self._setters[0](self, name)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.name == other.name

    def __hash__(self):
        return hash((self.name,))


class Const(_Name):
    __slots__ = ()


class Var(_Name):
    __slots__ = ()


class GVar(_Name):
    __slots__ = ()


class App(Value):
    __slots__ = ("fn", "args")

    def __init__(self, fn: str, args: tuple):
        put_fn, put_args = self._setters
        put_fn(self, fn)
        put_args(self, args)

    def __eq__(self, other):
        return other.__class__ is App and self.fn == other.fn and self.args == other.args

    def __hash__(self):
        return hash((self.fn, self.args))


Term = Num | Const | Var | GVar | App


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
    # the runtime never calls it; it stays because bench/tracer.py wraps it by name
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


def eval_ground(t: Term) -> Term:
    """Reduce every ground s/+/* subterm to a numeral; leave the rest alone.
    A leaf, or an application of leaves, is reduced at once; a deeper term
    is walked on an explicit stack, so its depth costs no frames."""
    if t.__class__ is not App:
        return t
    for a in t.args:
        if a.__class__ is App:
            break
    else:
        return _reduce(t.fn, t.args, t)
    # an explicit stack of (application, values of its arguments so far);
    # arguments that are not applications are taken over in one pass
    frames = [(t, [])]
    while True:
        app, vals = frames[-1]
        args = app.args
        i = len(vals)
        while i < len(args) and args[i].__class__ is not App:
            vals.append(args[i])
            i += 1
        if i < len(args):
            frames.append((args[i], []))
            continue
        frames.pop()
        value = _reduce(app.fn, tuple(vals), None)
        if not frames:
            return value
        frames[-1][1].append(value)


def _reduce(fn: str, args: tuple, same) -> Term:
    """fn applied to evaluated args; `same`, if given, is that application."""
    if len(args) == 1:
        if fn == "s" and args[0].__class__ is Num:
            return Num(args[0].value + 1)
    elif len(args) == 2 and (fn == "+" or fn == "*") \
            and args[0].__class__ is Num and args[1].__class__ is Num:
        a, b = args[0].value, args[1].value
        return Num(a + b if fn == "+" else a * b)
    return App(fn, args) if same is None else same


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
    """t as text, walked on an explicit stack of literal text and of (term,
    context precedence) pairs, so depth costs no interpreter frames."""
    out, stack = [], [(t, prec)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        t, prec = item
        if isinstance(t, Num):
            out.append(_decimal(t.value))
        elif isinstance(t, _Name):
            out.append(t.name)
        elif not isinstance(t, App):
            raise TypeError(f"not a term: {t!r}")
        elif t.fn in _PREC and len(t.args) == 2:
            p = _PREC[t.fn]
            todo = [(t.args[0], p), t.fn, (t.args[1], p + 1)]
            stack += reversed(["(", *todo, ")"] if p < prec else todo)
        else:
            args = [part for a in t.args for part in (",", (a, 0))][1:]
            stack += reversed([f"{t.fn}(", *args, ")"])
    return "".join(out)
