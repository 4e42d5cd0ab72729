"""Proof scripts: surface syntax, the statement interpreter, strategy execution.

Script grammar (``%`` starts a comment)::

    script := "algorithm" ident "{" stmt* "}"
    stmt   := path ".read(" ident ");"
            | path ".write;"
            | "choose" "(" restr ("," restr)* ")" ";"
            | "schoose" "(" restr ("," restr)* ")" ";"
            | "for" ident "=" expr "to" expr "{" stmt* "}"
            | "if" cond "{" stmt* "}" ("else" "{" stmt* "}")?
            | "prove" ";" | "execute" ";"
    restr  := path ":" rule ("," rule)*
    rule   := "read" | "write" | "replicate" | "close"
    path   := "/" (ident | UpperIdent) ("." (integer | ident))*
    expr   := naturals, script variables, "+", "*"
    cond   := expr ("=" | "<" | "<=" | ">" | ">=") expr

A script wins only through `execute`: with a strategy pending from `prove`
it walks that strategy against the environment, otherwise it attempts
elementary closure of the configuration as it stands.
"""

from __future__ import annotations

import sys

from . import formulas as F
from .configuration import (Configuration, Path, WriteMove, apply_move,
                            apply_read, apply_write, move_line, resolve)
from .errors import ChannelError, ConfigError, ParseError
from .parser import TokenStream, kind
from .prover import (RULE_NAMES, Bounds, EnvBranch, Leaf, ProveResult,
                     Restriction, Step, Strategy, prove, validate_restrictions)
from .records import Record, Value
from .solver import Substitution, close_elementary
from .terms import Num, subst_const


# AST ------------------------------------------------------------------
# A statement's path segments are integers or script-variable names, which
# `resolve_path` replaces by their values when the statement runs.

class ReadStmt(Value):
    __slots__ = ("path", "var")

    def __init__(self, path: Path, var: str):
        self._setfields(path, var)


class WriteStmt(Value):
    __slots__ = ("path",)

    def __init__(self, path: Path):
        self._setfields(path)


class ChooseStmt(Value):
    __slots__ = ("restrictions", "prioritized")

    def __init__(self, restrictions: tuple, prioritized: bool):
        self._setfields(restrictions, prioritized)  # restrictions: (Path, rule names)


class ForStmt(Value):
    __slots__ = ("var", "lo", "hi", "body")

    def __init__(self, var: str, lo: object, hi: object, body: tuple):
        self._setfields(var, lo, hi, body)


class IfStmt(Value):
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: tuple, then: tuple, orelse: tuple):
        self._setfields(cond, then, orelse)


class ProveStmt(Value):
    __slots__ = ()


class ExecuteStmt(Value):
    __slots__ = ()


Statement = ReadStmt | WriteStmt | ChooseStmt | ForStmt | IfStmt | ProveStmt | ExecuteStmt


class Script(Value):
    __slots__ = ("name", "body")

    def __init__(self, name: str, body: tuple):
        self._setfields(name, body)


# parsing --------------------------------------------------------------

def parse_script(text: str) -> Script:
    ts = TokenStream(text, comment="%")
    ts.expect("algorithm")
    name = _ident(ts, "algorithm name")
    ts.expect("{")
    body = _stmts(ts)
    ts.expect("}")
    ts.finish()
    return Script(name, body)


def _stmts(ts: TokenStream) -> tuple:
    out = []
    while ts.peek() not in ("}", ""):
        out.append(_stmt(ts))
    return tuple(out)


def _stmt(ts: TokenStream) -> Statement:
    tok = ts.peek()
    if tok == "prove":
        ts.next()
        ts.expect(";")
        return ProveStmt()
    if tok == "execute":
        ts.next()
        ts.expect(";")
        return ExecuteStmt()
    if tok in ("choose", "schoose"):
        ts.next()
        ts.expect("(")
        restrs = [_restriction(ts)]
        while ts.at(","):
            ts.next()
            restrs.append(_restriction(ts))
        ts.expect(")")
        ts.expect(";")
        return ChooseStmt(tuple(restrs), prioritized=tok == "schoose")
    if tok == "for":
        ts.next()
        var = _ident(ts, "loop variable")
        ts.expect("=")
        lo = _expr(ts)
        ts.expect("to")
        hi = _expr(ts)
        ts.expect("{")
        body = _stmts(ts)
        ts.expect("}")
        return ForStmt(var, lo, hi, body)
    if tok == "if":
        ts.next()
        cond = _cond(ts)
        ts.expect("{")
        then = _stmts(ts)
        ts.expect("}")
        orelse: tuple = ()
        if ts.at("else"):
            ts.next()
            ts.expect("{")
            orelse = _stmts(ts)
            ts.expect("}")
        return IfStmt(cond, then, orelse)
    if tok == "/":
        return _path_stmt(ts)
    ts.error(f"unknown statement {tok!r}")


def _path(ts: TokenStream) -> Path:
    ts.expect("/")
    if kind(ts.peek()) not in ("IDENT", "UIDENT"):  # any identifier, as in a KB
        ts.expected("service name")
    name = ts.next()
    segments: list = []
    while ts.at("."):
        ts.next()
        tok = ts.peek()
        if kind(tok) == "INT":
            segments.append(ts.numeral())
        elif kind(tok) == "IDENT":
            segments.append(tok)
        else:
            ts.error(f"bad path segment {tok!r}")
        ts.next()
    return Path(name, tuple(segments))


def _path_stmt(ts: TokenStream) -> Statement:
    # the path reader takes the final .read or .write for a segment
    path = _path(ts)
    last, target = path.segments[-1:], Path(path.dir, path.segments[:-1])
    if last == ("read",) and ts.at("("):
        ts.next()
        var = _ident(ts, "script variable")
        ts.expect(")")
        ts.expect(";")
        return ReadStmt(target, var)
    if last == ("write",) and ts.at(";"):
        ts.next()
        return WriteStmt(target)
    ts.error("path statement must end in .read(v) or .write")


def _restriction(ts: TokenStream):
    path = _path(ts)
    ts.expect(":")
    rules = [_rule(ts)]
    while ts.at(",") and ts.peek(1) != "/":
        ts.next()
        rules.append(_rule(ts))
    return path, tuple(rules)


def _rule(ts: TokenStream) -> str:
    tok = ts.peek()
    if tok not in RULE_NAMES:
        ts.error(f"unknown rule {tok!r} (expected one of {', '.join(RULE_NAMES)})")
    return ts.next()


def _expr(ts: TokenStream):
    e = _expr_prod(ts)
    while ts.at("+"):
        ts.next()
        e = ("+", e, _expr_prod(ts))
    return e


def _expr_prod(ts: TokenStream):
    e = _expr_atom(ts)
    while ts.at("*"):
        ts.next()
        e = ("*", e, _expr_atom(ts))
    return e


def _expr_atom(ts: TokenStream):
    tok = ts.peek()
    if kind(tok) == "INT":
        value = ts.numeral()
        ts.next()
        return value
    if kind(tok) == "IDENT":
        ts.next()
        return tok
    ts.error(f"expected a number or script variable, found {tok!r}")


def _cond(ts: TokenStream):
    lhs = _expr(ts)
    tok = ts.peek()
    if tok not in ("=", "<", "<=", ">", ">="):
        ts.error(f"expected a comparison, found {tok!r}")
    ts.next()
    return (tok, lhs, _expr(ts))


def _ident(ts: TokenStream, what: str) -> str:
    if kind(ts.peek()) != "IDENT":
        ts.expected(what)
    return ts.next()


# environment channel ---------------------------------------------------

class ListChannel:
    """Environment values supplied up front, consumed strictly in order."""

    def __init__(self, values):
        self.values = []
        for k, v in enumerate(values, start=1):
            try:
                self.values.append(int(v))
            except ValueError:
                text = str(v).strip()
                if text.isdecimal():  # more digits than int() converts
                    raise ParseError(f"numeral too long ({len(text)} digits) "
                                     f"in environment value {k}") from None
                raise ChannelError(
                    f"environment values must be naturals, got {v!r}") from None
        self.pos = 0

    def next_value(self, path: str, var: str) -> int:
        if self.pos >= len(self.values):
            raise ChannelError(f"no environment value left for {path}")
        value = self.values[self.pos]
        self.pos += 1
        if value < 0:
            raise ChannelError(f"environment values must be naturals, got {value}")
        return value


class InteractiveChannel:
    """Prompts on stdout and reads naturals from stdin; three strikes and out."""

    def __init__(self, infile=None, outfile=None):
        self.infile = infile if infile is not None else sys.stdin
        self.outfile = outfile if outfile is not None else sys.stdout

    def next_value(self, path: str, var: str) -> int:
        for _attempt in range(3):
            self.outfile.write(f"ENV move at {path} (@{var}): ")
            self.outfile.flush()
            line = self.infile.readline()
            if line == "":
                raise ChannelError("environment input closed")
            line = line.strip()
            if line.isdecimal():
                try:
                    return int(line)
                except ValueError:  # more digits than int() converts: a strike
                    pass
        raise ChannelError("three non-numeric environment inputs")


# interpreter ------------------------------------------------------------

class ScriptEnv(Record):
    """`pending` is a won prove awaiting execute."""
    __slots__ = ("channel", "variables", "restrictions", "pending", "bounds",
                 "trace_sink")

    def __init__(self, channel: object, variables: dict | None = None,
                 restrictions: list | None = None, pending: ProveResult | None = None,
                 bounds: Bounds = Bounds(), trace_sink: object = None):
        self._setfields(channel, {} if variables is None else variables,
                        [] if restrictions is None else restrictions, pending,
                        bounds, trace_sink)


class Outcome(Record):
    """`status` is won | lost; `steps` counts the deciding prove's search nodes."""
    __slots__ = ("status", "reason", "subst", "result", "steps")

    def __init__(self, status: str, reason: str = "", subst: Substitution | None = None,
                 result: F.Formula | None = None, steps: int = 0):
        self._setfields(status, reason, subst, result, steps)

    @property
    def won(self) -> bool:
        return self.status == "won"


def run_script(script: Script, cfg: Configuration, env: ScriptEnv):
    """Execute the statements in order; the game is decided by execute (or a
    failing prove).  Returns (outcome, final configuration)."""
    outcome, cfg = _run_block(script.body, cfg, env)
    if outcome is None:
        outcome = Outcome("lost", "script ended without closing")
    return outcome, cfg


def _run_block(stmts, cfg, env):
    for stmt in stmts:
        outcome, cfg = _exec(stmt, cfg, env)
        if outcome is not None:
            return outcome, cfg
    return None, cfg


def _exec(stmt: Statement, cfg: Configuration, env: ScriptEnv):
    if isinstance(stmt, ReadStmt):
        path = resolve_path(stmt.path, env.variables)
        cfg2, nid, _sign = resolve(cfg, path, create=True)
        node = cfg2.nodes[nid]
        fvar = node.var if node.op in ("all", "exists") else "?"
        value = env.channel.next_value(str(path), fvar)
        cfg3 = apply_read(cfg2, path, value, stmt.var)
        env.variables[stmt.var] = value
        _emit_new(cfg, cfg3, env.trace_sink)
        return None, cfg3
    if isinstance(stmt, WriteStmt):
        cfg2 = apply_write(cfg, resolve_path(stmt.path, env.variables))
        _emit_new(cfg, cfg2, env.trace_sink)
        return None, cfg2
    if isinstance(stmt, ChooseStmt):
        restrictions = [Restriction(resolve_path(p, env.variables), rules,
                                    stmt.prioritized)
                        for p, rules in stmt.restrictions]
        env.restrictions.extend(validate_restrictions(cfg, restrictions))
        return None, cfg
    if isinstance(stmt, ForStmt):
        lo = eval_expr(stmt.lo, env.variables)
        hi = eval_expr(stmt.hi, env.variables)
        for value in range(lo, hi + 1):
            env.variables[stmt.var] = value
            outcome, cfg = _run_block(stmt.body, cfg, env)
            if outcome is not None:
                return outcome, cfg
        return None, cfg
    if isinstance(stmt, IfStmt):
        branch = stmt.then if _test(stmt.cond, env.variables) else stmt.orelse
        return _run_block(branch, cfg, env)
    if isinstance(stmt, ProveStmt):
        result = prove(cfg, env.restrictions, env.bounds, env.trace_sink)
        if not result.ok:
            return Outcome("lost", result.reason, steps=result.steps), cfg
        env.pending = result
        return None, cfg
    if isinstance(stmt, ExecuteStmt):
        if env.pending is not None:
            proved, env.pending = env.pending, None
            outcome, cfg = execute_strategy(proved.strategy, cfg, env)
            outcome.steps = proved.steps
            return outcome, cfg
        closed = close_elementary(cfg)
        if closed.ok:
            return Outcome("won", subst=closed.subst, result=closed.output), cfg
        return Outcome("lost", f"closure: {closed.reason}"), cfg
    raise ConfigError(f"unknown statement {stmt!r}")


def execute_strategy(strategy: Strategy, cfg: Configuration, env: ScriptEnv):
    """Walk a strategy against the live environment channel.

    Machine steps are applied as recorded; at an environment branch the next
    channel value picks the move and stands for the branch's eigenvariable
    in every later write of a term.
    """
    node, eigens = strategy, {}
    while True:
        if isinstance(node, Leaf):
            closed = close_elementary(cfg)
            if closed.ok:
                return Outcome("won", subst=closed.subst, result=closed.output), cfg
            return Outcome("lost", f"closure: {closed.reason}"), cfg
        if isinstance(node, Step):
            move = node.move
            if isinstance(move, WriteMove) and move.term is not None:
                term = move.term
                for eigen, value in eigens.items():
                    term = subst_const(term, eigen, value)
                move = WriteMove(move.path, term=term)
            cfg2 = apply_move(cfg, move)
            _emit_new(cfg, cfg2, env.trace_sink)
            cfg = cfg2
            node = node.rest
            continue
        if isinstance(node, EnvBranch):
            value = env.channel.next_value(str(node.path), node.var)
            cfg2 = apply_read(cfg, node.path, value, node.var)
            _emit_new(cfg, cfg2, env.trace_sink)
            cfg = cfg2
            eigens[node.eigen] = Num(value)
            node = node.rest
            continue
        raise ConfigError(f"unknown strategy node {node!r}")


def resolve_path(path: Path, variables) -> Path:
    """The path with each script-variable segment replaced by its value."""
    segs = list(path.segments)
    for i, seg in enumerate(segs):
        if isinstance(seg, str):
            if seg not in variables:
                raise ConfigError(f"undefined script variable {seg!r} in path")
            segs[i] = variables[seg]
            if segs[i] < 1:
                raise ConfigError(
                    f"path segment {seg}={segs[i]} must be a positive integer")
    return Path(path.dir, tuple(segs))


def eval_expr(expr, variables) -> int:
    if isinstance(expr, int):
        return expr
    if isinstance(expr, str):
        if expr not in variables:
            raise ConfigError(f"undefined script variable {expr!r}")
        return variables[expr]
    op, lhs, rhs = expr
    a, b = eval_expr(lhs, variables), eval_expr(rhs, variables)
    return a + b if op == "+" else a * b


def _test(cond, variables) -> bool:
    op, lhs, rhs = cond
    a, b = eval_expr(lhs, variables), eval_expr(rhs, variables)
    return {"=": a == b, "<": a < b, "<=": a <= b,
            ">": a > b, ">=": a >= b}[op]


def _emit_new(before: Configuration, after: Configuration, sink):
    if sink is None:
        return
    for move in after.trace[len(before.trace):]:
        sink(move_line(move))
