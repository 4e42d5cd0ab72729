"""First-order terms (naturals, constants, variables, arithmetic applications)
and ground arithmetic: ``eval_ground`` reduces ground s/+/* to numerals.

Four variable-like things live in terms and they are kept distinct:

* ``Var``    -- a bound variable (lowercase, bound by a choice quantifier)
               or a directory parameter (uppercase, bound by a clause pattern).
* ``Const``  -- a rigid lowercase symbol.
* ``GVar``   -- a global variable (W1, W2, ...) introduced by write moves and
               resolved by unification; never written in source text.
* ``Num``    -- a natural-number literal.

Every term walk in coli goes through two walks, both on explicit stacks, so
a term's depth costs no interpreter frames:

* ``leaves(t)``  -- t's non-application subterms, left to right (the fold
                    behind ``term_gvars``, ``is_ground`` and the prover's
                    term universe);
* ``replace(t, cls, get)`` -- t with the leaves of class cls that ``get``
                    maps put in (the map behind ``subst_*``,
                    ``Substitution.apply`` and closure's rule renaming).
                    ``eval_ground`` rebuilds deep terms on the same stack.

Unification (``solver.unify``) keeps its own stack of argument pairs.  What
still recurses is ``App.__eq__`` and ``App.__hash__``, one frame per level
of the term, and ``directories._match``, which runs inside expansion's
raised recursion limit.
"""

from __future__ import annotations

from operator import is_not

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


def leaves(t: Term) -> list:
    """t's non-application subterms, left to right, found on an explicit
    stack, so depth costs no frames."""
    if t.__class__ is not App:
        return [t]
    out, stack = [], list(t.args[::-1])
    while stack:
        t = stack.pop()
        if t.__class__ is App:
            stack += reversed(t.args)
        else:
            out.append(t)
    return out


def replace(t: Term, cls: type, get) -> Term:
    """t with each leaf of class cls whose name `get` maps to a value put in
    for that value (`get` returns None to keep a leaf).  An application in
    which nothing changed comes back as the same object.  A leaf, or an
    application of leaves, is done in one pass, and a deeper term by
    `_rebuild`."""
    if t.__class__ is not App:
        if t.__class__ is cls:
            value = get(t.name)
            if value is not None:
                return value
        return t
    vals = None
    for i, a in enumerate(t.args):
        if a.__class__ is cls:
            value = get(a.name)
            if value is not None:
                if vals is None:
                    vals = list(t.args)
                vals[i] = value
        elif a.__class__ is App:
            return _rebuild(t, cls, get, False)
    return t if vals is None else App(t.fn, tuple(vals))


def _rebuild(t: App, cls, get, evaluate: bool) -> Term:
    """t rebuilt bottom-up on an explicit stack, so its depth costs no
    frames: the leaves as `replace` puts them in, and each application with
    its new arguments, reduced as `eval_ground` does when evaluate is set.
    An application in which nothing changed stays the same object."""
    # the application being rebuilt, an iterator over its arguments and
    # their new values so far; the same for its ancestors on `frames`
    app, rest, vals, frames = t, iter(t.args), [], []
    while True:
        for a in rest:
            if a.__class__ is App:
                frames.append((app, rest, vals))
                app, rest, vals = a, iter(a.args), []
                break
            if a.__class__ is cls:
                value = get(a.name)
                if value is not None:
                    a = value
            vals.append(a)
        else:
            value = _reduce(app.fn, vals) if evaluate else None
            if value is None:
                changed = any(map(is_not, vals, app.args))
                value = App(app.fn, tuple(vals)) if changed else app
            if not frames:
                return value
            app, rest, vals = frames.pop()
            vals.append(value)


def term_gvars(t: Term) -> set:
    """All GVar names occurring in t."""
    if t.__class__ is not App:
        return {t.name} if t.__class__ is GVar else set()
    return {x.name for x in leaves(t) if x.__class__ is GVar}


def is_ground(t: Term) -> bool:
    """True when t contains no Var and no GVar."""
    return not any(x.__class__ is Var or x.__class__ is GVar for x in leaves(t))


def subst_var(t: Term, name: str, value: Term) -> Term:
    """Replace every occurrence of Var(name) in t by value."""
    return replace(t, Var, {name: value}.get)


def subst_gvar(t: Term, name: str, value: Term) -> Term:
    # the runtime never calls it; it stays because bench/tracer.py wraps it by name
    return replace(t, GVar, {name: value}.get)


def subst_const(t: Term, name: str, value: Term) -> Term:
    return replace(t, Const, {name: value}.get)


def eval_ground(t: Term) -> Term:
    """Reduce every ground s/+/* subterm to a numeral; leave the rest alone.
    A leaf, or an application of leaves, is reduced at once, and a deeper
    term by `_rebuild`."""
    if t.__class__ is not App:
        return t
    for a in t.args:
        if a.__class__ is App:
            return _rebuild(t, None, None, True)
    value = _reduce(t.fn, t.args)
    return t if value is None else value


def _reduce(fn: str, args) -> Num | None:
    """The numeral that fn makes of the evaluated args, or None."""
    if len(args) == 1:
        if fn == "s" and args[0].__class__ is Num:
            return Num(args[0].value + 1)
    elif len(args) == 2 and (fn == "+" or fn == "*") \
            and args[0].__class__ is Num and args[1].__class__ is Num:
        a, b = args[0].value, args[1].value
        return Num(a + b if fn == "+" else a * b)
    return None


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
