"""Reference loader and expander for differential tests; not part of coli.

This is `load_kb` and `expand_into` as they were before one parser read a
whole KB file: `load_kb` splits each line and calls `parse_formula` and
`parse_pattern` on its texts, which are module names here so that a test
can put the recursive-descent reference parser in their place, and the
expander builds each service with two closures of its own and resolves
every reference it meets.  The one deliberate difference from that loader
is the name rule (`_checked_name`): a directory name in a query line or a
definition head is one identifier.  Only the value classes, `eval_ground`,
`subst_var` and the printers are shared with coli.
"""

import re
import sys

from coli import formulas as F
from coli.directories import (DEPTH_LIMIT, Clause, DirectoryDef,
                              DirectoryTable)
from coli.errors import DepthLimitError, ExpandError, KBError, ParseError
from coli.graphs import OPS, FormulaGraph, GNode
from coli.parser import parse_formula, parse_pattern
from coli.solver import eval_ground
from coli.terms import App, Num, Term, Var, is_ground, pretty_term, subst_var

_BINARY = (F.And, F.Or, F.Implies)  # the connectives with two children


def _checked_name(name: str) -> str:
    if not re.fullmatch(r"[^\W\d_]\w*", name):
        raise KBError(f"directory name must be one identifier, found {name!r}")
    return name


def define_directory(table: DirectoryTable, name: str, clauses) -> DirectoryTable:
    """Install a definition, replacing any previous one under the same name.

    All clauses must agree on arity and their patterns must be pairwise
    non-overlapping; each clause is checked against the clauses before it.
    """
    built = [Clause(pattern, body) for pattern, body in clauses]
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
    table.defs[name] = DirectoryDef(name, 1, prev.clauses + (Clause(pattern, body),))


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
    """Expand a reference into a graph of its own, with no DirRef nodes left:
    `expand_into` on an empty node store."""
    graph = FormulaGraph()
    graph.root, _shared = expand_into(table, ref, graph.nodes)
    return graph


def expand_into(table: DirectoryTable, ref: F.DirRef,
                nodes: dict) -> tuple[int, set]:
    """Expand a reference into the node store `nodes`, adding each node at
    id len(nodes) after its children; returns (root id, shared ids).

    Clause bodies are walked as written, with the parameter bindings of the
    reference that reached them: an atom's or a reference's arguments are
    bound as its node is built.  Parameters are uppercase and quantified
    variables lowercase, and a binding's value is ground, so no binder can
    capture a bound value and none needs renaming.  Copy references produce
    fresh subtrees on every occurrence; shared references are expanded once
    per name and evaluated arguments and reused.  A node is cached only after
    its body is built, so each reuse gives it one more parent: the shared
    ids, the nodes handed out on reuse, are exactly those of in-degree > 1.
    """
    cache: dict = {}
    shared: set[int] = set()
    # a runaway recursive definition burns several Python frames per level,
    # so give the interpreter room to actually reach the depth limit
    previous_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous_limit, DEPTH_LIMIT * 10 + 500))

    def bind(args: tuple, env: dict) -> tuple:
        for name, value in env.items():
            args = tuple(subst_var(t, name, value) for t in args)
        return args

    def build(f: F.Formula, env: dict, depth: int) -> int:
        if depth > DEPTH_LIMIT:
            raise DepthLimitError(
                f"expansion of /{ref.name} exceeded depth {DEPTH_LIMIT}")
        kind = type(f)
        if kind in OPS:
            depth += 1
            kids = ((build(f.left, env, depth), build(f.right, env, depth))
                    if kind in _BINARY else (build(f.body, env, depth),))
            node = GNode(OPS[kind], children=kids, var=getattr(f, "var", None))
        elif kind is F.Atom:
            node = GNode("atom", pred=f.pred, args=bind(f.args, env))
        elif kind is not F.DirRef:
            raise ExpandError(f"cannot expand {f!r}")
        elif f.copy:
            return build(*resolve_ref(table, f.name, bind(f.args, env)),
                         depth + 1)
        else:
            args = bind(f.args, env)
            key = (f.name, tuple(eval_ground(a) for a in args))
            nid = cache.get(key)
            if nid is None:
                nid = cache[key] = build(*resolve_ref(table, f.name, args),
                                         depth + 1)
            else:
                shared.add(nid)
            return nid
        nid = len(nodes)
        nodes[nid] = node
        return nid

    try:
        root = build(ref, {}, 0)
    finally:
        sys.setrecursionlimit(previous_limit)
        # build's closure holds build itself: break that cycle so the
        # expansion's garbage is freed now, not by the cycle collector
        del build
    return root, shared


def load_kb(text: str) -> DirectoryTable:
    """Parse a knowledge-base file into a directory table.  A parse error
    reports its line and column in the file."""
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
                table.query = _checked_name(rest[1:].strip())
                continue
            name, pattern, params, rhs, rhs_start = _split_definition(raw, lineno)
            body = _parse_at(lineno, rhs_start, parse_formula, rhs, params)
            if pattern is None:
                define_directory(table, name, [(None, body)])
            else:
                _extend_directory(table, name, pattern, body)
        except (ParseError, KBError) as exc:
            raise KBError(f"line {lineno}: {exc}") from exc
    return table


def _split_definition(raw: str, lineno: int):
    """(name, pattern, params, rhs, where rhs starts in raw) of a definition
    line; the pattern is parsed here."""
    line = raw.strip()
    eq = raw.find("=")
    if eq < 0:
        raise KBError(f"missing '=' in definition: {line!r}")
    head, rhs = raw[:eq].strip(), raw[eq + 1:]
    rhs_start = eq + 1 + len(rhs) - len(rhs.lstrip())
    if not head.startswith("/"):
        raise KBError(f"definitions start with '/': {line!r}")
    head = head[1:]
    if "(" in head:
        if not head.endswith(")"):
            raise KBError(f"unclosed pattern in {line!r}")
        name, pat_text = head[:-1].split("(", 1)
        name = _checked_name(name.strip())
        pat_start = raw.index("(")
        pattern, params = _parse_at(lineno, pat_start + 1, parse_pattern, pat_text)
        return name, pattern, params, rhs.strip(), rhs_start
    return _checked_name(head.strip()), None, (), rhs.strip(), rhs_start


def _parse_at(lineno: int, start: int, parse, text: str, *args):
    """parse(text, *args) for text that begins at offset `start` of the file's
    line `lineno`; a parse error is moved to that line and column."""
    try:
        return parse(text, *args)
    except ParseError as exc:
        if exc.col is None:
            raise
        raise ParseError(exc.reason, lineno, exc.col + start) from None
