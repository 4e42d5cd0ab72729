"""Lexer and operator-precedence parser for formulas and terms.

Grammar (quantifier bodies bind tight; parenthesize to widen scope):

    formula := imp
    imp     := dis ("->" imp)?
    dis     := con ("\\/" con)*
    con     := un ("/\\" un)*
    un      := "~" un | "@" ident "." un | "#" ident "." un | "$" un
             | "(" formula ")" | atom | dirref
    dirref  := "!"? "/" (ident | UpperIdent) ("(" terms ")")?
    atom    := ident ("(" terms ")")?
    term    := sum ; sum := prod ("+" prod)* ; prod := factor ("*" factor)*
    factor  := numeral | ident ("(" terms ")")? | UpperIdent | "(" term ")"

Lowercase identifiers are constants unless bound by an enclosing quantifier;
uppercase identifiers must be declared directory parameters.

The lexer is one regular expression: tokens are plain strings whose first
character gives their kind, and "" ends every token list.  A ParseError finds
its line and column (a tab is one column) by lexing again up to its token.
The parser keeps operators, prefixes, parentheses and applications on
explicit stacks, so no nesting depth of the input costs interpreter frames.
One FormulaParser reads the texts of a whole KB file, one after another, and
builds each distinct leaf term of the file once.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .formulas import All, And, Atom, DirRef, Exists, Formula, Implies, Neg, Or, Recur
from .terms import App, Const, Num, Term, Var

# numeral | identifier (no leading underscore: those name eigenvariables)
# | two-character operator | one-character operator; blanks match nothing
_TOKEN = re.compile(r"\d+|[^\W\d_]\w*|/\\|\\/|->|<=|>=|[()\[\],.~@#$!/=:;{}<>+*]")
_ASCII_TOKEN = re.compile(_TOKEN.pattern, re.ASCII)  # the same on ASCII text, faster
_BLANKS = re.compile(r"[ \t\r\n]*")
# operator: (left power, right power, constructor).  A pending operator is
# reduced when its right power reaches the next one's left power, so "->",
# whose right power is lower, associates to the right.
_BINARY = {"/\\": (3, 3, And), "\\/": (2, 2, Or), "->": (1, 0, Implies)}
_PREFIX = {"~": Neg, "$": Recur}
_QUANTIFIER = {"@": All, "#": Exists}
_ARITH = {"+": (1, 1, lambda a, b: App("+", (a, b))),
          "*": (2, 2, lambda a, b: App("*", (a, b)))}


def _strip_comments(text: str, comment: str | None) -> str:
    # a comment never ends a line, so every token keeps its line and column
    return re.sub(re.escape(comment) + "[^\n]*", "", text) if comment else text


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text: str, comment: str | None = None) -> list[str]:
    """Split text into tokens, then ""; `comment` (e.g. "%") skips to end of line."""
    text = _strip_comments(text, comment)
    tokens = (_ASCII_TOKEN if text.isascii() else _TOKEN).findall(text)
    skipped = len(text) - len("".join(tokens)) - text.count(" ")
    if skipped and skipped != text.count("\t") + text.count("\r") + text.count("\n"):
        # findall stepped over a character that starts no token: find the first
        pos = _BLANKS.match(text).end()
        while m := _TOKEN.match(text, pos):
            pos = _BLANKS.match(text, m.end()).end()
        raise ParseError(f"unexpected character {text[pos]!r}", *_line_col(text, pos))
    tokens.append("")
    return tokens


def _reduce(pending: list, right, power: int = 0):
    """Fold the pending entries whose right power is at least `power` into right."""
    while pending and pending[-1][1] >= power:
        left, _, build = pending.pop()
        right = build(left, right)
    return right


def kind(tok: str) -> str:
    """INT, UIDENT, IDENT or OP, from the token's first character; EOF for ""."""
    if not tok:
        return "EOF"
    first = tok[0]
    return ("INT" if first.isdecimal() else "UIDENT" if first.isupper()
            else "IDENT" if first.isalnum() else "OP")


class TokenStream:
    """The tokens of one text, read by index."""

    def __init__(self, text: str | None = None, comment: str | None = None):
        self.text, self.comment, self.pos = text, comment, 0
        self.tokens = None if text is None else tokenize(text, comment)

    def peek(self, ahead: int = 0) -> str:
        # look ahead only from a token other than the final "", which ends the list
        return self.tokens[self.pos + ahead]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        if tok:
            self.pos += 1
        return tok

    def expect(self, value: str) -> str:
        if self.tokens[self.pos] != value:
            self.expected(repr(value))
        self.pos += 1
        return value

    def at(self, value: str) -> bool:
        return self.tokens[self.pos] == value

    def finish(self, result=None):
        """Return result if the input is used up, else raise a ParseError."""
        tok = self.tokens[self.pos]
        if tok:
            self.error(f"trailing input {tok!r}")
        return result

    def numeral(self, index: int | None = None) -> int:
        """The value of the numeral token at index (default: the current one)."""
        index = self.pos if index is None else index
        try:
            return int(self.tokens[index])
        except ValueError:  # more digits than int() converts
            self.error(f"numeral too long ({len(self.tokens[index])} digits)", index)

    def expected(self, what: str, index: int | None = None):
        """Raise "expected <what>, found <token>" at the token at index."""
        index = self.pos if index is None else index
        found = self.tokens[index] or "end of input"
        self.error(f"expected {what}, found {found!r}", index)

    def error(self, message: str, index: int | None = None):
        """Raise a ParseError at the token at index (default: the current one)."""
        text = _strip_comments(self.text, self.comment)
        starts = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
        index = self.pos if index is None else index
        raise ParseError(message, *_line_col(text, starts[index]))


class FormulaParser:
    """Parses formulas and terms; tracks quantifier scope and directory
    parameters.  `feed` moves it on to the next text; the leaf terms (`Var`,
    `Const`, `Num`) of all its texts are hash-consed (Filliâtre and Conchon
    2006), so equal leaves are one object.  A pattern text takes every
    UpperIdent as a parameter and lists them in `names`, in order of first
    occurrence.  Given a stream, it parses in place on it, with no parameters."""

    def __init__(self, ts: TokenStream | None = None):
        self.ts = TokenStream() if ts is None else ts
        self.leaves, self.vars = {}, {}  # Const by name, Num by value; Var by name
        self.params, self.names, self.bound = frozenset(), None, []

    def feed(self, text: str, params=(), pattern: bool = False) -> TokenStream:
        """Lex text as the next input, over the directory parameters `params`;
        returns the stream, whose `finish` checks that a parse used it up."""
        ts = self.ts
        ts.text, ts.tokens, ts.pos = text, tokenize(text), 0
        self.params = frozenset(params)
        self.names: list[str] | None = [] if pattern else None
        self.bound: list[str] = []
        return ts

    def formula(self, unary: bool = False) -> Formula:
        """Parse a formula, or with `unary` one `un` of the grammar."""
        ts, toks, bound = self.ts, self.ts.tokens, self.bound
        i = ts.pos
        frames = []    # open parentheses: the (pending, prefixes) outside each
        pending = []   # (left operand, right power, constructor) of connectives
        prefixes = []  # (constructor, quantified variable or None), innermost last
        while True:
            tok = toks[i]
            if tok in _PREFIX:
                prefixes.append((_PREFIX[tok], None))
                i += 1
                continue
            if tok in _QUANTIFIER:
                var = toks[i + 1]
                if not (var[:1].isalnum() and not var[0].isdecimal()
                        and not var[0].isupper()):  # kind(var) != "IDENT"
                    ts.expected("quantifier variable", i + 1)
                if toks[i + 2] != ".":
                    ts.expected("'.'", i + 2)
                prefixes.append((_QUANTIFIER[tok], var))
                bound.append(var)
                i += 3
                continue
            if tok == "(":
                frames.append((pending, prefixes))
                pending, prefixes = [], []
                i += 1
                continue
            if tok == "!" or tok == "/":
                if tok == "!":
                    i += 1
                if toks[i] != "/":
                    ts.expected("'/'", i)
                name = toks[i + 1]
                if kind(name) not in ("IDENT", "UIDENT"):  # any identifier
                    ts.expected("directory name", i + 1)
                i += 2
            elif (tok[:1].isalnum() and not tok[0].isdecimal()
                  and not tok[0].isupper()):  # kind(tok) == "IDENT"
                name = None
                i += 1
            else:
                ts.expected("a formula", i)
            args = ()
            if toks[i] == "(":
                args, i = self._term(i + 1, [])
            f = Atom(tok, args) if name is None else DirRef(name, args, tok == "!")
            while True:  # f is a complete operand
                while prefixes:
                    build, var = prefixes.pop()
                    if var is None:
                        f = build(f)
                    else:
                        bound.pop()
                        f = build(var, f)
                if unary and not frames:
                    ts.pos = i
                    return f
                tok = toks[i]
                op = _BINARY.get(tok)
                if op is not None:
                    if pending:
                        f = _reduce(pending, f, op[0])
                    pending.append((f, op[1], op[2]))
                    i += 1
                    break
                if pending:
                    f = _reduce(pending, f)
                if not frames:
                    ts.pos = i
                    return f
                if tok != ")":
                    ts.expected("')'", i)
                i += 1
                pending, prefixes = frames.pop()

    # terms ----------------------------------------------------------

    def term(self) -> Term:
        t, self.ts.pos = self._term(self.ts.pos)
        return t

    def _term(self, i: int, arglist: list | None = None):
        """Parse the term at token i, or with `arglist` the rest of an argument
        list through its ")"; returns the term (or the arguments) and the
        index after it."""
        ts, toks, bound = self.ts, self.ts.tokens, self.bound
        leaves, variables = self.leaves, self.vars  # leaves are never falsy
        # the innermost open application or parenthesis: its function ("("
        # for a parenthesized term, None for `arglist`), its arguments so far
        # and the operators pending outside it; the ones around it on `calls`
        fn, args, outside = None, arglist, None
        calls = []
        pending = []  # (left operand, right power, constructor) of "+" and "*"
        while True:
            tok = toks[i]
            if tok in bound and toks[i + 1] != "(":
                t = variables.get(tok) or variables.setdefault(tok, Var(tok))
            elif tok.isdecimal():
                value = ts.numeral(i)
                t = leaves.get(value) or leaves.setdefault(value, Num(value))
            elif tok[:1].isupper():
                if self.names is None:
                    if tok not in self.params:
                        ts.error(f"unbound variable {tok!r}", i)
                elif tok not in self.names:
                    self.names.append(tok)
                t = variables.get(tok) or variables.setdefault(tok, Var(tok))
            elif tok[:1].isalnum() and toks[i + 1] != "(":
                t = leaves.get(tok) or leaves.setdefault(tok, Const(tok))
            elif tok[:1].isalnum() or tok == "(":  # an application or a parenthesis
                calls.append((fn, args, outside))
                fn, args, outside, pending = tok, [], pending, []
                i += 1 if tok == "(" else 2
                continue
            else:
                ts.expected("a term", i)
            i += 1
            while True:  # t is a complete operand
                tok = toks[i]
                op = _ARITH.get(tok)
                if op is not None:
                    if pending:
                        t = _reduce(pending, t, op[0])
                    pending.append((t, op[1], op[2]))
                    i += 1
                    break
                if pending:
                    t = _reduce(pending, t)
                if args is None:
                    return t, i
                args.append(t)
                if tok == "," and fn != "(":
                    i += 1
                    break
                if tok != ")":
                    ts.expected("')'", i)
                i += 1
                if fn is None:
                    return tuple(args), i
                t = args[0] if fn == "(" else App(fn, tuple(args))
                pending = outside
                fn, args, outside = calls.pop()


def parse_formula(text: str, params=()) -> Formula:
    """Parse a complete formula; `params` names permitted UpperIdent parameters."""
    parser = FormulaParser()
    return parser.feed(text, params).finish(parser.formula())


def parse_term(text: str, params=()) -> Term:
    parser = FormulaParser()
    return parser.feed(text, params).finish(parser.term())


def parse_dirref(text: str) -> DirRef:
    """Parse a directory reference such as ``/m(s(0))`` or ``!/n``."""
    parser = FormulaParser()
    f = parser.feed(text).finish(parser.formula(unary=True))
    if not isinstance(f, DirRef):
        raise ParseError("not a directory reference")
    return f


def parse_pattern(text: str) -> tuple[Term, tuple[str, ...]]:
    """Parse a clause pattern; UpperIdents bind and are returned as parameters."""
    parser = FormulaParser()
    return parser.feed(text, pattern=True).finish(parser.term()), tuple(parser.names)
