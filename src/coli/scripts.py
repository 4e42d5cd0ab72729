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
    expr   := term    (a KB term: its lowercase names are script variables)
    cond   := expr ("=" | "<" | "<=" | ">" | ">=") expr

A script wins only through `execute`: with a strategy pending from `prove`
it walks that strategy against the environment, otherwise it attempts
elementary closure of the configuration as it stands.  A strategy is a
tuple in play order (prover's module docstring), so walking it is one loop:
each move is applied, each `EnvBranch` reads the channel's next value, and
closure follows the last item.

A won `prove` keeps the position at its strategy's leaf and the closure
that won there.  When `execute` follows at once, on the configuration that
`prove` searched from, and the strategy has no environment branch, `execute`
takes that leaf and closure as they are and emits the leaf's moves.
Configurations are values and a fresh write is numbered by the position it
is made in, so walking such a strategy would apply the same moves to the same
position, rebuild exactly that leaf and repeat the closure that already won.
A strategy with a branch is walked: its leaf holds eigenvariables, where
the run has the environment's values.
"""

from __future__ import annotations

import operator
import sys

from . import formulas as F
from .configuration import (Configuration, Path, ReadMove, WriteMove,
                            apply_move, apply_read, apply_write, move_line,
                            resolve)
from .errors import ChannelError, ConfigError, ParseError
from .parser import FormulaParser, TokenStream, kind
from .prover import (RULE_NAMES, Bounds, EnvBranch, Restriction, Strategy,
                     prove, validate_restrictions)
from .records import Record, Value
from .solver import ClosureResult, Substitution, close_elementary
from .terms import Const, Num, Term, eval_ground, pretty_term, replace

_COMPARE = {"=": operator.eq, "<": operator.lt, "<=": operator.le,
            ">": operator.gt, ">=": operator.ge}


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

    def __init__(self, var: str, lo: Term, hi: Term, body: tuple):
        self._setfields(var, lo, hi, body)


class IfStmt(Value):
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: tuple, then: tuple, orelse: tuple):
        self._setfields(cond, then, orelse)  # cond: (comparison, Term, Term)


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
    body = _stmts(FormulaParser(ts))  # expressions are terms, read on ts
    ts.expect("}")
    ts.finish()
    return Script(name, body)


def _stmts(terms: FormulaParser) -> tuple:
    out = []
    while terms.ts.peek() not in ("}", ""):
        out.append(_stmt(terms))
    return tuple(out)


def _stmt(terms: FormulaParser) -> Statement:
    ts = terms.ts
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
        lo = terms.term()
        ts.expect("to")
        hi = terms.term()
        ts.expect("{")
        body = _stmts(terms)
        ts.expect("}")
        return ForStmt(var, lo, hi, body)
    if tok == "if":
        ts.next()
        lhs, op = terms.term(), ts.peek()
        if op not in _COMPARE:
            ts.error(f"expected a comparison, found {op!r}")
        ts.next()
        cond = (op, lhs, terms.term())
        ts.expect("{")
        then = _stmts(terms)
        ts.expect("}")
        orelse: tuple = ()
        if ts.at("else"):
            ts.next()
            ts.expect("{")
            orelse = _stmts(terms)
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


def _ident(ts: TokenStream, what: str) -> str:
    if kind(ts.peek()) != "IDENT":
        ts.expected(what)
    return ts.next()


# environment channel ---------------------------------------------------

def _env_value(text: str) -> int | None:
    """The natural an environment value's text spells in decimal digits, or None."""
    text = text.strip()
    return int(text) if text.isdecimal() else None


class ListChannel:
    """Environment values supplied up front, consumed strictly in order."""

    def __init__(self, values):
        self.values = []
        for k, v in enumerate(values, start=1):
            try:  # an int is a natural already, and str() may refuse a long one
                value = v if isinstance(v, int) and v >= 0 else _env_value(str(v))
            except ValueError:
                raise ParseError(f"numeral too long ({len(str(v).strip())} digits) "
                                 f"in environment value {k}") from None
            if value is None:
                raise ChannelError(f"environment values must be naturals, got {v!r}")
            self.values.append(value)
        self.pos = 0

    def next_value(self, path: str, var: str) -> int:
        if self.pos >= len(self.values):
            raise ChannelError(f"no environment value left for {path}")
        value = self.values[self.pos]
        self.pos += 1
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
            try:
                value = _env_value(line)
            except ValueError:  # more digits than int() converts: a strike
                continue
            if value is not None:
                return value
        raise ChannelError("three non-numeric environment inputs")


# interpreter ------------------------------------------------------------

class ScriptEnv(Record):
    """A run's channel, bounds and trace sink, then its state: the script
    variables, the chosen restrictions and `pending`, a won prove to execute."""
    __slots__ = ("channel", "bounds", "trace_sink", "variables", "restrictions",
                 "pending")

    def __init__(self, channel: object, bounds: Bounds = Bounds(),
                 trace_sink: object = None):
        self._setfields(channel, bounds, trace_sink, {}, [], None)


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
    env.variables, env.restrictions, env.pending = {}, [], None  # each run's own
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
        op, lhs, rhs = stmt.cond
        holds = _COMPARE[op](eval_expr(lhs, env.variables), eval_expr(rhs, env.variables))
        return _run_block(stmt.then if holds else stmt.orelse, cfg, env)
    if isinstance(stmt, ProveStmt):
        result = prove(cfg, env.restrictions, env.bounds, env.trace_sink)
        if not result.ok:
            return Outcome("lost", result.reason, steps=result.steps), cfg
        env.pending = result
        return None, cfg
    if isinstance(stmt, ExecuteStmt):
        if env.pending is None:
            return _outcome(close_elementary(cfg)), cfg
        proved, env.pending = env.pending, None
        if proved.source is cfg and _branch_free(proved.strategy):
            # a replay would rebuild the won leaf (module docstring)
            _emit_new(cfg, proved.leaf, env.trace_sink)
            outcome, cfg = _outcome(proved.closed), proved.leaf
        else:
            outcome, cfg = execute_strategy(proved.strategy, cfg, env)
        outcome.steps = proved.steps
        return outcome, cfg
    raise ConfigError(f"unknown statement {stmt!r}")


def execute_strategy(strategy: Strategy, cfg: Configuration, env: ScriptEnv):
    """Walk a strategy against the live environment channel, then close.

    Machine moves are applied as recorded; at an environment branch the next
    channel value picks the move and stands for the branch's eigenvariable
    in every later write of a term.
    """
    eigens = {}
    for item in strategy:
        if isinstance(item, EnvBranch):
            value = env.channel.next_value(str(item.path), item.var)
            eigens[item.eigen] = Num(value)
            item = ReadMove(item.path, value, item.var)
        elif isinstance(item, WriteMove) and item.term is not None:
            item = WriteMove(item.path, term=replace(item.term, Const, eigens.get))
        before, cfg = cfg, apply_move(cfg, item)
        _emit_new(before, cfg, env.trace_sink)
    return _outcome(close_elementary(cfg)), cfg


def _branch_free(strategy: Strategy) -> bool:
    return not any(isinstance(item, EnvBranch) for item in strategy)


def _outcome(closed: ClosureResult) -> Outcome:
    if closed.ok:
        return Outcome("won", subst=closed.subst, result=closed.output)
    return Outcome("lost", f"closure: {closed.reason}")


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


def eval_expr(term: Term, variables) -> int:
    """The expression's value: each script variable's value put in for its
    name, then the ground arithmetic of `eval_ground`."""
    values = {name: Num(value) for name, value in variables.items()}
    value = eval_ground(replace(term, Const, values.get))
    if not isinstance(value, Num):
        raise ConfigError(f"expression {pretty_term(term)} is not arithmetic "
                          "over defined script variables")
    return value.value


def _emit_new(before: Configuration, after: Configuration, sink):
    if sink is None:
        return
    for move in after.trace[len(before.trace):]:
        sink(move_line(move))
