"""Named directory definitions and their expansion into formula graphs.

A directory maps a name (optionally with one parameter, matched against
clause patterns such as ``0`` / ``s(X)``) to a formula.  References come in
two flavours: ``!/m`` splices in a fresh copy of the content, ``/m`` splices
in one shared node that every reference points at.

KB file format, one definition per line::

    # lines starting with '#' are comments
    /c = fact(0,1)
    /m(0) = q
    /m(s(X)) = p /\\ !/m(X)
    query /query
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from . import formulas as F
from .errors import DepthLimitError, ExpandError, KBError, ParseError
from .graphs import FormulaGraph, GNode
from .parser import parse_formula, parse_pattern
from .solver import eval_ground
from .terms import App, Num, Term, Var, is_ground, pretty_term

DEFAULT_DEPTH_LIMIT = 1024


@dataclass(frozen=True)
class Clause:
    pattern: Term | None  # None for parameterless directories
    params: tuple
    body: F.Formula


@dataclass(frozen=True)
class DirectoryDef:
    name: str
    arity: int
    clauses: tuple


class DirectoryTable:
    """Directory definitions plus the designated output service, if any."""

    def __init__(self):
        self.defs: dict[str, DirectoryDef] = {}
        self.query: str | None = None

    def input_names(self) -> list[str]:
        """Parameterless directories other than the query act as input services."""
        return [n for n, d in self.defs.items() if d.arity == 0 and n != self.query]


def define_directory(table: DirectoryTable, name: str, clauses) -> DirectoryTable:
    """Install a definition, replacing any previous one under the same name.

    All clauses must agree on arity and their patterns must be pairwise
    non-overlapping; each clause is checked against the clauses before it.
    """
    built = [_clause(pattern, body) for pattern, body in clauses]
    arities = {0 if c.pattern is None else 1 for c in built}
    if len(arities) != 1:
        raise KBError(f"/{name}: clauses disagree on arity")
    arity = arities.pop()
    prev = table.defs.get(name)
    if prev is not None and prev.arity != arity:
        raise KBError(f"/{name}: redefinition changes arity "
                      f"({prev.arity} -> {arity})")
    if arity:
        for i, clause in enumerate(built):
            _check_disjoint(name, built[:i], clause.pattern)
    table.defs[name] = DirectoryDef(name, arity, tuple(built))
    return table


def _clause(pattern: Term | None, body: F.Formula) -> Clause:
    params = ()
    if pattern is not None:
        params = tuple(sorted(F.free_vars(F.Atom("_", (pattern,)))))
    return Clause(pattern, params, body)


def _check_disjoint(name: str, earlier, pattern: Term):
    for clause in earlier:
        if _patterns_overlap(clause.pattern, pattern):
            raise KBError(
                f"/{name}: overlapping patterns {pretty_term(clause.pattern)} "
                f"and {pretty_term(pattern)}")


def _extend_directory(table: DirectoryTable, name: str, pattern: Term,
                      body: F.Formula):
    """Append one pattern clause to /name, checked only against the clauses
    it already has, so k clauses cost k(k-1)/2 overlap checks."""
    prev = table.defs.get(name)
    if prev is None or prev.arity == 0:
        define_directory(table, name, [(pattern, body)])
        return
    _check_disjoint(name, prev.clauses, pattern)
    table.defs[name] = DirectoryDef(name, 1, prev.clauses + (_clause(pattern, body),))


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


def resolve_ref(table: DirectoryTable, ref: F.DirRef) -> F.Formula:
    """The body a reference stands for, with parameters substituted."""
    defn = table.defs.get(ref.name)
    if defn is None:
        raise ExpandError(f"undefined directory /{ref.name}")
    if len(ref.args) != defn.arity:
        raise ExpandError(f"/{ref.name} takes {defn.arity} argument(s), "
                          f"got {len(ref.args)}")
    if defn.arity == 0:
        return defn.clauses[0].body
    arg = eval_ground(ref.args[0])
    if not is_ground(arg):
        raise ExpandError(f"/{ref.name}: argument {pretty_term(arg)} is not ground")
    for clause in defn.clauses:
        bindings = match_pattern(clause.pattern, arg)
        if bindings is not None:
            body = clause.body
            for name, value in bindings.items():
                body = F.substitute(body, name, value)
            return body
    raise ExpandError(f"/{ref.name}: no clause matches {pretty_term(arg)}")


def expand(table: DirectoryTable, ref: F.DirRef,
           depth_limit: int = DEFAULT_DEPTH_LIMIT) -> FormulaGraph:
    """Expand a reference into a graph with no DirRef nodes left.

    Copy references produce fresh subtrees on every occurrence; shared
    references are expanded once and reused, giving in-degree > 1.
    """
    graph = FormulaGraph()
    shared: dict = {}
    # a runaway recursive definition burns several Python frames per level,
    # so give the interpreter room to actually reach the depth limit
    previous_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous_limit, depth_limit * 10 + 500))

    def build(f: F.Formula, depth: int) -> int:
        if depth > depth_limit:
            raise DepthLimitError(
                f"expansion of /{ref.name} exceeded depth {depth_limit}")
        if isinstance(f, F.DirRef):
            if f.copy:
                return build(resolve_ref(table, f), depth + 1)
            key = (f.name, tuple(eval_ground(a) for a in f.args))
            if key in shared:
                return shared[key]
            nid = build(resolve_ref(table, f), depth + 1)
            shared[key] = nid
            return nid
        if isinstance(f, F.Atom):
            return graph.add(GNode("atom", pred=f.pred, args=f.args))
        kids = tuple(build(c, depth + 1) for c in F.children(f))
        if isinstance(f, F.Neg):
            return graph.add(GNode("neg", children=kids))
        if isinstance(f, F.And):
            return graph.add(GNode("and", children=kids))
        if isinstance(f, F.Or):
            return graph.add(GNode("or", children=kids))
        if isinstance(f, F.Implies):
            return graph.add(GNode("implies", children=kids))
        if isinstance(f, (F.All, F.Exists)):
            op = "all" if isinstance(f, F.All) else "exists"
            return graph.add(GNode(op, children=kids, var=f.var))
        if isinstance(f, F.Recur):
            return graph.add(GNode("recur", children=kids))
        raise ExpandError(f"cannot expand {f!r}")

    try:
        graph.root = build(ref, 0)
    finally:
        sys.setrecursionlimit(previous_limit)
        # build's closure holds build itself: break that cycle so the
        # expansion's garbage is freed now, not by the cycle collector
        del build
    return graph


def load_kb(text: str) -> DirectoryTable:
    """Parse a knowledge-base file into a directory table."""
    table = DirectoryTable()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("query"):
                rest = line[len("query"):].strip()
                if not rest.startswith("/"):
                    raise KBError("query line needs a /name")
                table.query = rest[1:].strip()
                continue
            name, pattern, params, rhs = _split_definition(line)
            body = parse_formula(rhs, params)
            if pattern is None:
                define_directory(table, name, [(None, body)])
            else:
                _extend_directory(table, name, pattern, body)
        except ParseError as exc:
            raise KBError(f"line {lineno}: {exc}") from exc
        except KBError as exc:
            raise KBError(f"line {lineno}: {exc}") from exc
    return table


def _split_definition(line: str):
    eq = line.find("=")
    if eq < 0:
        raise KBError(f"missing '=' in definition: {line!r}")
    head, rhs = line[:eq].strip(), line[eq + 1:].strip()
    if not head.startswith("/"):
        raise KBError(f"definitions start with '/': {line!r}")
    head = head[1:]
    if "(" in head:
        if not head.endswith(")"):
            raise KBError(f"unclosed pattern in {line!r}")
        name, pat_text = head[:-1].split("(", 1)
        pattern, params = parse_pattern(pat_text)
        return name.strip(), pattern, params, rhs
    return head.strip(), None, (), rhs

