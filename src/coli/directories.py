"""Named directory definitions and their expansion into formula graphs.

A directory maps a name (optionally with one parameter, matched against
clause patterns such as ``0`` / ``s(X)``) to a formula.  References come in
two flavours: ``!/m`` splices in a fresh copy of the content, ``/m`` splices
in one shared node that every reference points at.

KB file format, one definition per line, each name one identifier::

    # lines starting with '#' are comments
    /c = fact(0,1)
    /m(0) = q
    /m(s(X)) = p /\\ !/m(X)
    query /query

`load_kb` feeds a file's patterns and bodies to one FormulaParser, so a table
holds each distinct leaf term once."""

from __future__ import annotations

import re
import sys

from . import formulas as F
from .errors import DepthLimitError, ExpandError, KBError, ParseError
from .graphs import OPS, FormulaGraph, GNode
from .parser import FormulaParser
from .records import Value
from .terms import (App, Num, Term, Var, eval_ground, is_ground, pretty_term,
                    subst_var)

DEPTH_LIMIT = 1024
_NAME = re.compile(r"[^\W\d_]\w*")  # one identifier, as the lexer reads it
_BINARY = (F.And, F.Or, F.Implies)  # the connectives with two children


class Clause(Value):
    __slots__ = ("pattern", "body")

    def __init__(self, pattern: Term | None, body: F.Formula):
        put_pattern, put_body = self._setters
        put_pattern(self, pattern)  # None: a parameterless directory
        put_body(self, body)


class DirectoryDef(Value):
    __slots__ = ("name", "arity", "clauses")

    def __init__(self, name: str, arity: int, clauses: tuple):
        put_name, put_arity, put_clauses = self._setters
        put_name(self, name)
        put_arity(self, arity)
        put_clauses(self, clauses)


class DirectoryTable:
    """Directory definitions plus the designated output service, if any."""

    def __init__(self):
        self.defs: dict[str, DirectoryDef] = {}
        self.query: str | None = None

    def input_names(self) -> list[str]:
        """Parameterless directories other than the query act as input services."""
        return [n for n, d in self.defs.items() if d.arity == 0 and n != self.query]


def _add_clause(table: DirectoryTable, name: str, pattern: Term | None,
                body: F.Formula):
    """Add one KB line's clause to /name: a parameterless one replaces it, a
    pattern clause is appended, checked against the clauses it already has."""
    prev, arity = table.defs.get(name), 0 if pattern is None else 1
    if prev is not None and prev.arity != arity:
        raise KBError(f"/{name}: redefinition changes arity ({prev.arity} -> {arity})")
    clauses = prev.clauses if arity and prev is not None else ()
    for clause in clauses:
        if _patterns_overlap(clause.pattern, pattern):
            raise KBError(f"/{name}: overlapping patterns "
                          f"{pretty_term(clause.pattern)} and {pretty_term(pattern)}")
    table.defs[name] = DirectoryDef(name, arity, clauses + (Clause(pattern, body),))


def match_pattern(pattern: Term, arg: Term):
    """Bindings making pattern equal arg, or None.  Numerals interoperate
    with the successor function: s(X) matches 3 with X = 2."""
    bindings: dict[str, Term] = {}
    return bindings if _match(pattern, arg, bindings) else None


def _match(p: Term, a: Term, bindings: dict) -> bool:
    if isinstance(p, Var):
        if p.name in bindings:
            return bindings[p.name] == a
        bindings[p.name] = a
        return True
    if isinstance(p, Num):
        if isinstance(a, Num):
            return p.value == a.value
        return False
    if isinstance(p, App):
        if p.fn == "s" and isinstance(a, Num):
            if a.value == 0:
                return False
            return _match(p.args[0], Num(a.value - 1), bindings)
        if isinstance(a, App) and a.fn == p.fn and len(a.args) == len(p.args):
            return all(_match(pp, aa, bindings) for pp, aa in zip(p.args, a.args))
        return False
    return p == a


def _patterns_overlap(p: Term, q: Term) -> bool:
    # patterns overlap when some ground argument matches both; a variable
    # matches anything, and s^k(0) chains interoperate with numerals
    if isinstance(p, Var) or isinstance(q, Var):
        return True
    if isinstance(p, Num) and isinstance(q, Num):
        return p.value == q.value
    if isinstance(p, App) and p.fn == "s" and isinstance(q, Num):
        return q.value > 0 and _patterns_overlap(p.args[0], Num(q.value - 1))
    if isinstance(q, App) and q.fn == "s" and isinstance(p, Num):
        return _patterns_overlap(q, p)
    if isinstance(p, App) and isinstance(q, App):
        return (p.fn == q.fn and len(p.args) == len(q.args)
                and all(_patterns_overlap(a, b) for a, b in zip(p.args, q.args)))
    return p == q


def resolve_ref(table: DirectoryTable, name: str,
                args: tuple) -> tuple[F.Formula, dict]:
    """The clause body that the ground reference /name(args) stands for, and
    the bindings of the clause's parameters that its pattern match made.  The
    body is returned as written; `expand` binds the parameters as it builds
    nodes."""
    defn = table.defs.get(name)
    if defn is None:
        raise ExpandError(f"undefined directory /{name}")
    if len(args) != defn.arity:
        raise ExpandError(f"/{name} takes {defn.arity} argument(s), "
                          f"got {len(args)}")
    if defn.arity == 0:
        return defn.clauses[0].body, {}
    arg = eval_ground(args[0])
    if not is_ground(arg):
        raise ExpandError(f"/{name}: argument {pretty_term(arg)} is not ground")
    for clause in defn.clauses:
        bindings = match_pattern(clause.pattern, arg)
        if bindings is not None:
            return clause.body, bindings
    raise ExpandError(f"/{name}: no clause matches {pretty_term(arg)}")


def expand(table: DirectoryTable, ref: F.DirRef) -> FormulaGraph:
    """Expand a reference into a graph of its own, with no DirRef nodes left."""
    graph = FormulaGraph()
    graph.root, _shared = Expansion(table, graph.nodes).expand(ref)
    return graph


class Expansion:
    """Expands references into the node store `nodes`, adding each node at id
    len(nodes) after its children.

    Clause bodies are walked as written, with the parameter bindings of the
    reference that reached them: an atom's or a reference's arguments are
    bound as its node is built.  Parameters are uppercase and quantified
    variables lowercase, and a binding's value is ground, so no binder can
    capture a bound value and none needs renaming.  Copy references produce
    fresh subtrees on every occurrence; shared references are expanded once
    per name and evaluated arguments and reused.  A node is cached only after
    its body is built, so each reuse gives it one more parent: the shared
    ids, the nodes handed out on reuse, are exactly those of in-degree > 1.
    `resolve_ref`'s answers are kept, by name and evaluated arguments, for
    every reference the expansion meets.
    """
    __slots__ = ("table", "nodes", "resolved", "name", "cache", "shared")

    def __init__(self, table: DirectoryTable, nodes: dict):
        self.table, self.nodes, self.resolved = table, nodes, {}

    def expand(self, ref: F.DirRef) -> tuple[int, set]:
        """Expand one reference: (root id, shared ids)."""
        self.name, self.cache, self.shared = ref.name, {}, set()
        # a runaway recursive definition burns several Python frames per level,
        # so give the interpreter room to actually reach the depth limit
        previous_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(previous_limit, DEPTH_LIMIT * 10 + 500))
        try:  # the root is cached nowhere: nothing is built after it
            root = self.build(*resolve_ref(self.table, ref.name, ref.args), 1)
        finally:
            sys.setrecursionlimit(previous_limit)
        return root, self.shared

    def build(self, f: F.Formula, env: dict, depth: int) -> int:
        if depth > DEPTH_LIMIT:
            raise DepthLimitError(
                f"expansion of /{self.name} exceeded depth {DEPTH_LIMIT}")
        kind = type(f)
        op = OPS.get(kind)
        if op is not None:
            depth += 1
            kids = ((self.build(f.left, env, depth), self.build(f.right, env, depth))
                    if kind in _BINARY else (self.build(f.body, env, depth),))
            node = GNode(op, kids, None, (), getattr(f, "var", None))
        elif kind is F.Atom:
            node = GNode("atom", (), f.pred, _bind(f.args, env) if env else f.args)
        elif kind is not F.DirRef:
            raise ExpandError(f"cannot expand {f!r}")
        else:
            args = _bind(f.args, env) if env else f.args
            key = (f.name, tuple(map(eval_ground, args)))
            found = self.resolved.get(key)
            if found is None:
                found = self.resolved[key] = resolve_ref(self.table, f.name, args)
            if f.copy:
                return self.build(*found, depth + 1)
            nid = self.cache.get(key)
            if nid is None:
                nid = self.cache[key] = self.build(*found, depth + 1)
            else:
                self.shared.add(nid)
            return nid
        nid = len(self.nodes)
        self.nodes[nid] = node
        return nid


def _bind(args: tuple, env: dict) -> tuple:
    for name, value in env.items():
        args = tuple(subst_var(t, name, value) for t in args)
    return args


def load_kb(text: str) -> DirectoryTable:
    """Parse a knowledge-base file into a directory table.  An error reports
    its line, and a parse error also its column in the file."""
    table = DirectoryTable()
    parser = FormulaParser()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        try:
            if line.startswith("query"):
                rest = line[len("query"):].strip()
                if not rest.startswith("/"):
                    raise KBError("query line needs a /name")
                table.query = _name(rest[1:])
                continue
            eq = raw.find("=")
            if eq < 0:
                raise KBError(f"missing '=' in definition: {line!r}")
            head, rhs = raw[:eq].strip(), raw[eq + 1:]
            if not head.startswith("/"):
                raise KBError(f"definitions start with '/': {line!r}")
            if "(" not in head:
                name, pattern, params = _name(head[1:]), None, ()
            elif not head.endswith(")"):
                raise KBError(f"unclosed pattern in {line!r}")
            else:
                name, pat_text = head[1:-1].split("(", 1)
                name, start = _name(name), raw.index("(") + 1
                pattern = parser.feed(pat_text, pattern=True).finish(parser.term())
                params = tuple(parser.names)
            start = eq + 1 + len(rhs) - len(rhs.lstrip())  # where the body begins
            body = parser.feed(rhs.strip(), params).finish(parser.formula())
            _add_clause(table, name, pattern, body)
        except (ParseError, KBError) as exc:
            if isinstance(exc, ParseError):  # placed in its text: move it to the file
                exc = ParseError(exc.reason, lineno, exc.col + start)
            raise KBError(f"line {lineno}: {exc}") from exc
    return table


def _name(text: str) -> str:
    """text, stripped, as a directory's name: one identifier."""
    name = text.strip()
    if not _NAME.fullmatch(name):
        raise KBError(f"directory name must be one identifier, found {name!r}")
    return name
