"""Formula syntax: the worked examples, precedence, errors, round-trips over a
structured fuzzer, nesting depth, and a differential test against the
recursive-descent parser the current one replaced."""

import random
import sys
from dataclasses import dataclass

import pytest

from coli.directories import load_kb
from coli.errors import KBError, ParseError
from coli.formulas import (All, And, Atom, DirRef, Exists, Implies, Neg, Or,
                           Recur, pretty)
from coli.parser import (TokenStream, parse_dirref, parse_formula, parse_pattern,
                         parse_term, tokenize)
from coli.scripts import parse_script
from coli.terms import App, Const, Num, Var, pretty_term

import kb_reference
from conftest import DATA, app, data_text

def test_parse_base_fact():
    assert parse_formula("fact(0,1)") == Atom("fact", (Num(0), Num(1)))


def test_parse_query():
    f = parse_formula("@y. #z. fact(y,z)")
    assert f == All("y", Exists("z", Atom("fact", (Var("y"), Var("z")))))


def test_parse_nullary_atom():
    assert parse_formula("p") == Atom("p", ())


def test_parse_step_service():
    f = parse_formula("$ @x. @y. (fact(x,y) -> fact(x+1, x*y+y))")
    want = Recur(All("x", All("y", Implies(
        Atom("fact", (Var("x"), Var("y"))),
        Atom("fact", (app("+", Var("x"), Num(1)),
                      app("+", app("*", Var("x"), Var("y")), Var("y"))))))))
    assert f == want


def test_recurrence_scopes_tighter_than_disjunction():
    f = parse_formula("$ #x. p(x) \\/ q(a)")
    assert f == Or(Recur(Exists("x", Atom("p", (Var("x"),)))),
                   Atom("q", (Const("a"),)))


def test_precedence_chain():
    f = parse_formula("~p /\\ q \\/ r -> p")
    assert f == Implies(Or(And(Neg(Atom("p")), Atom("q")), Atom("r")), Atom("p"))


def test_implies_right_associative():
    f = parse_formula("p -> q -> r")
    assert f == Implies(Atom("p"), Implies(Atom("q"), Atom("r")))


def test_dirref_forms():
    assert parse_formula("/m") == DirRef("m", (), False)
    assert parse_formula("!/m(s(0))") == DirRef("m", (app("s", Num(0)),), True)
    assert parse_dirref("/m(s(s(s(0))))").name == "m"
    with pytest.raises(ParseError):
        parse_dirref("p /\\ q")


def test_unbound_uppercase_rejected():
    with pytest.raises(ParseError):
        parse_formula("p(X)")
    assert parse_formula("p(X)", params=("X",)) == Atom("p", (Var("X"),))


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_formula("p /\\\n /\\ q")
    assert err.value.line == 2


def test_parse_term_shapes():
    assert parse_term("fact(x+1, x*y+y)") == app(
        "fact", app("+", Const("x"), Num(1)),
        app("+", app("*", Const("x"), Const("y")), Const("y")))


# round-trip fuzzing ----------------------------------------------------

def _random_term(rng, scope, depth):
    pick = rng.random()
    if depth <= 0 or pick < 0.3:
        choices = [Num(rng.randrange(4)), Const(rng.choice("abc"))]
        if scope:
            choices.append(Var(rng.choice(sorted(scope))))
        return rng.choice(choices)
    if pick < 0.5:
        return app("s", _random_term(rng, scope, depth - 1))
    if pick < 0.7:
        # either operand may be any term: a sum under a product, or to the
        # right of a sum, prints in parentheses
        return app(rng.choice("+*"), _random_term(rng, scope, depth - 1),
                   _random_term(rng, scope, depth - 1))
    return app("f", _random_term(rng, scope, depth - 1))


def _random_formula(rng, scope, depth):
    if depth <= 0 or rng.random() < 0.3:
        pred = rng.choice("pqr")
        args = tuple(_random_term(rng, scope, 2)
                     for _ in range(rng.randrange(3)))
        return Atom(pred, args)
    kind = rng.randrange(8)
    if kind == 0:
        return Neg(_random_formula(rng, scope, depth - 1))
    if kind == 1:
        var = rng.choice("xyz")
        return All(var, _random_formula(rng, scope | {var}, depth - 1))
    if kind == 2:
        var = rng.choice("xyz")
        return Exists(var, _random_formula(rng, scope | {var}, depth - 1))
    if kind == 3:
        return Recur(_random_formula(rng, scope, depth - 1))
    if kind == 4:
        return DirRef(rng.choice("mn"), (), rng.random() < 0.5)
    ctor = (And, Or, Implies)[kind - 5]
    return ctor(_random_formula(rng, scope, depth - 1),
                _random_formula(rng, scope, depth - 1))


def test_pretty_parse_round_trip():
    rng = random.Random(20240801)
    for _ in range(400):
        f = _random_formula(rng, set(), rng.randrange(1, 7))
        assert parse_formula(pretty(f)) == f, pretty(f)


def test_expected_pretty_forms():
    assert pretty(parse_formula("p /\\ (p /\\ (p /\\ q))")) == "p /\\ (p /\\ (p /\\ q))"
    assert pretty(parse_formula("(p /\\ p) /\\ q")) == "p /\\ p /\\ q"
    assert pretty(parse_formula("@y. #z. fact(y,z)")) == "@y. #z. fact(y,z)"


# deep nesting ----------------------------------------------------------

def _peel(node, step):
    """Follow step(node) until it returns None; the number of steps taken
    and the last node, without recursion."""
    depth = 0
    while (inner := step(node)) is not None:
        node, depth = inner, depth + 1
    return depth, node


def test_parse_at_any_nesting_depth(default_recursion_limit):
    n = 5000
    depth, leaf = _peel(parse_term("s(" * n + "0" + ")" * n),
                        lambda t: t.args[0] if isinstance(t, App) else None)
    assert (depth, leaf) == (n, Num(0))
    assert parse_formula("(" * n + "p" + ")" * n) == Atom("p", ())
    depth, leaf = _peel(parse_formula("~" * n + "p"),
                        lambda f: f.body if isinstance(f, Neg) else None)
    assert (depth, leaf) == (n, Atom("p", ()))
    depth, leaf = _peel(parse_formula("@x. ~(" * n + "p(x)" + ")" * n),
                        lambda f: f.body if isinstance(f, (All, Neg)) else None)
    assert (depth, leaf) == (2 * n, Atom("p", (Var("x"),)))
    ref = parse_dirref("!/m(" + "s(" * n + "0" + ")" * (n + 1))
    depth, leaf = _peel(ref.args[0], lambda t: t.args[0] if isinstance(t, App) else None)
    assert (ref.name, ref.copy, depth, leaf) == ("m", True, n, Num(0))


# differential test against the recursive-descent parser --------------------
#
# The reference below is the character-loop lexer and recursive-descent
# parser that coli.parser replaced, kept verbatim in behaviour.  Every
# generated text must give both sides an equal AST, or a ParseError with the
# same message, line and column.

@dataclass(frozen=True)
class _Tok:
    kind: str  # INT | IDENT | UIDENT | OP | EOF
    value: str
    line: int
    col: int


def _ref_tokenize(text, comment=None):
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col = line + 1, 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if comment and ch == comment:
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text[i:i + 2] in ("/\\", "\\/", "->", "<=", ">="):
            toks.append(_Tok("OP", text[i:i + 2], line, col))
            i += 2
            col += 2
            continue
        if ch.isdigit() or ch.isalpha():
            j = i + 1
            if ch.isdigit():
                while j < n and text[j].isdigit():
                    j += 1
                kind = "INT"
            else:
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                kind = "UIDENT" if ch.isupper() else "IDENT"
            toks.append(_Tok(kind, text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "()[],.~@#$!/=:;{}<>+*":
            toks.append(_Tok("OP", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("EOF", "", line, col))
    return toks


class _RefParser:
    def __init__(self, text, params=(), pattern=False):
        self.toks, self.pos = _ref_tokenize(text), 0
        self.params, self.bound = set(params), []
        self.names = [] if pattern else None

    def peek(self):
        return self.toks[min(self.pos, len(self.toks) - 1)]

    def next(self):
        tok = self.peek()
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, value):
        return self.peek().kind != "EOF" and self.peek().value == value

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, value):
        if not self.at(value):
            self.fail(f"expected {value!r}, found {self.peek().value or 'end of input'!r}")
        return self.next()

    def done(self, result):
        if self.peek().kind != "EOF":
            self.fail(f"trailing input {self.peek().value!r}")
        return result

    def formula(self):
        left = self.disjunction()
        if self.at("->"):
            self.next()
            return Implies(left, self.formula())
        return left

    def disjunction(self):
        f = self.conjunction()
        while self.at("\\/"):
            self.next()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self):
        f = self.unary()
        while self.at("/\\"):
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self):
        tok = self.peek()
        if tok.value in ("~", "$"):
            self.next()
            body = self.unary()
            return Neg(body) if tok.value == "~" else Recur(body)
        if tok.value in ("@", "#"):
            self.next()
            name = self.ident("quantifier variable")
            self.expect(".")
            self.bound.append(name)
            body = self.unary()
            self.bound.pop()
            return All(name, body) if tok.value == "@" else Exists(name, body)
        if tok.value == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if tok.value in ("!", "/"):
            copy = self.at("!")
            if copy:
                self.next()
            self.expect("/")
            return DirRef(self.ident("directory name", ("IDENT", "UIDENT")),
                          self.arglist(), copy)
        if tok.kind == "IDENT":
            return Atom(self.ident("atom"), self.arglist())
        self.fail(f"expected a formula, found {tok.value or 'end of input'!r}")

    def arglist(self):
        if not self.at("("):
            return ()
        self.next()
        args = [self.term()]
        while self.at(","):
            self.next()
            args.append(self.term())
        self.expect(")")
        return tuple(args)

    def term(self):
        t = self.prod()
        while self.at("+"):
            self.next()
            t = App("+", (t, self.prod()))
        return t

    def prod(self):
        t = self.factor()
        while self.at("*"):
            self.next()
            t = App("*", (t, self.factor()))
        return t

    def factor(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return Num(int(tok.value))
        if tok.kind == "UIDENT":
            if self.names is not None:
                if tok.value not in self.names:
                    self.names.append(tok.value)
            elif tok.value not in self.params:
                self.fail(f"unbound variable {tok.value!r}")
            self.next()
            return Var(tok.value)
        if tok.kind == "IDENT":
            self.next()
            if self.at("("):
                return App(tok.value, self.arglist())
            return Var(tok.value) if tok.value in self.bound else Const(tok.value)
        if tok.value == "(":
            self.next()
            t = self.term()
            self.expect(")")
            return t
        self.fail(f"expected a term, found {tok.value or 'end of input'!r}")

    def ident(self, what, kinds=("IDENT",)):
        tok = self.peek()
        if tok.kind not in kinds:
            self.fail(f"expected {what}, found {tok.value or 'end of input'!r}")
        return self.next().value


def _ref_formula(text, params=()):
    p = _RefParser(text, params)
    return p.done(p.formula())


def _ref_pattern(text):
    p = _RefParser(text, pattern=True)
    return p.done((p.term(), tuple(p.names)))


def _ref_dirref(text):
    p = _RefParser(text)
    f = p.done(p.unary())
    if not isinstance(f, DirRef):
        raise ParseError("not a directory reference")
    return f



def _ref_term(text, params=()):
    p = _RefParser(text, params)
    return p.done(p.term())


# (parser, reference, extra arguments) for every text entry point
ENTRY_POINTS = [(parse_formula, _ref_formula, ()),
                (parse_formula, _ref_formula, (("X", "Y"),)),
                (parse_term, _ref_term, (("X",),)),
                (parse_pattern, _ref_pattern, ()),
                (parse_dirref, _ref_dirref, ())]
BLANKS = ["", " ", " ", "  ", "\t", "\n", " \n\t", "\r\n"]
NOISE = "pqxXY0129s(),.~@#$!/\\-><=+*:;{}[]_'%&é\x0c \t\n"
SOUP = ["p", "q(", "r", "x", "y", "X", "Y", "s(", "f(", "0", "12", "(", ")",
        ")", ",", ".", "~", "$", "@x.", "#y.", "@", "#", "/\\", "\\/", "->",
        "/m", "!/n(", "/", "!", "+", "*", "=", "<=", ":", "_", "'", "é", "-"]


def _outcome(parse, text, *args):
    try:
        return "ok", parse(text, *args)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.col


def _respace(rng, text):
    # rejoin text's tokens with random blanks; "" may fuse two words into one
    toks = [tok.value for tok in _ref_tokenize(text)[:-1]]
    return rng.choice(BLANKS) + "".join(tok + rng.choice(BLANKS) for tok in toks)


def _mutate(rng, text):
    i = rng.randrange(len(text) + 1)
    edit = rng.randrange(4)
    if edit == 0:
        return text[:i] + rng.choice(NOISE) + text[i:]
    if edit == 1:
        return text[:i] + text[i + 1:]
    if edit == 2:
        return text[:i]
    return text[:i] + text[i:i + 2][::-1] + text[i + 2:]  # swap two characters


def _random_texts(rng, count):
    for _ in range(count):
        pick = rng.randrange(4)
        if pick == 0:
            text = pretty(_random_formula(rng, set(), rng.randrange(1, 6)))
            if rng.random() < 0.5:  # constants named like quantified variables
                text = text.translate(str.maketrans("abc", "xyz"))
        elif pick == 1:
            text = pretty_term(_random_term(rng, {"X", "y"}, rng.randrange(1, 5)))
        elif pick == 2:
            text = "".join(rng.choice(SOUP) + rng.choice(BLANKS)
                           for _ in range(rng.randrange(1, 12)))
        else:
            text = "/m(" + pretty_term(_random_term(rng, {"X"}, 3)) + ")"
        if pick != 2:
            text = _respace(rng, text)
        for _ in range(rng.choice((0, 0, 1, 2))):
            text = _mutate(rng, text)
        yield text


def test_any_identifier_names_a_referenced_directory():
    # a referenced name may start uppercase, as a definition head's may
    for text in ("/A", "!/A", "/Ab(3) /\\ !/m", "~/A -> /B(X)", "/\u00c9",
                 "/\u00e9", "/_a", "/3", "/A(", "!/ A"):
        for parse, ref, args in ENTRY_POINTS:
            assert _outcome(parse, text, *args) == _outcome(ref, text, *args), \
                (parse.__name__, text, args)
    assert parse_formula("/A /\\ !/A") == And(DirRef("A", (), False),
                                              DirRef("A", (), True))


def test_parser_matches_recursive_descent_reference():
    rng = random.Random(5005)
    wants = []
    for text in _random_texts(rng, 1500):
        for parse, ref, args in ENTRY_POINTS:
            wants.append(_outcome(ref, text, *args))
            assert _outcome(parse, text, *args) == wants[-1], (parse.__name__, text, args)
    # the texts reach every error of the grammar, also past the first line
    messages = " ".join(want[1] for want in wants if want[0] == "error")
    for prefix in ("unexpected character", "expected a formula", "expected a term",
                   "expected ')'", "expected '.'", "expected '/'", "expected quantifier",
                   "expected directory name", "unbound variable", "trailing input",
                   "not a directory reference", "(line 3,"):
        assert prefix in messages
    assert sum(want[0] == "ok" for want in wants) > len(wants) // 4


# KB files: the loader against the per-line loader it replaced

# lines that are not definitions, or whose head is malformed
KB_OTHER_LINES = ["", "  \t", "# é % ;", "  # heading ? ~", "#", "query /m",
                  "query/n", "query / k ", "query m", "query /a b", "query /a(3)",
                  "query /", "/a b = p", "m = p", "/m(X = p", "/ = p", "/(X) = p",
                  "/m(X)(Y) = p", "/mé = p"]
# what splits lines: str.splitlines also breaks at \x0c and  
KB_BREAKS = ["\n", "\n", "\n", "\r\n", "\x0c", " ", "\r"]


def _respace_line(rng, text):
    # _respace without line breaks
    toks = [tok.value for tok in _ref_tokenize(text)[:-1]]
    return "".join(tok + rng.choice(["", " ", " ", "  ", "\t"]) for tok in toks)


def _random_kb_file(rng):
    """A KB text of definitions of /m, /n and /k that redefine each other,
    change arity and add overlapping or disjoint pattern clauses, mixed
    with comments, query lines, blank lines and malformed heads."""
    lines = []
    for _ in range(rng.randrange(1, 9)):
        pick = rng.random()
        if pick < 0.2:
            lines.append(rng.choice(KB_OTHER_LINES))
            continue
        name = rng.choice("mnk")
        if pick < 0.55:
            pattern = rng.choice(["0", "1", "s(X)", "s(s(X))", "s(0)", "X", ""])
            pattern = pattern or pretty_term(_random_term(rng, {"X"}, 2))
            body = pretty(_random_formula(rng, set(), 3))
            body = body.replace("a", "X") if "X" in pattern else body
            lines.append(f"/{name}({_respace_line(rng, pattern)}) = "
                         f"{_respace_line(rng, body)}")
        else:
            body = pretty(_random_formula(rng, set(), 3))
            lines.append(f"/{name} = {_respace_line(rng, body)}")
    text = "".join(line + rng.choice(KB_BREAKS) for line in lines)
    return _mutate(rng, text) if rng.random() < 0.4 else text


def _load_outcome(load, text):
    try:
        table = load(text)
    except KBError as exc:
        return "error", str(exc)
    return "ok", table.query, {n: (d.arity, d.clauses) for n, d in table.defs.items()}


def _assert_loads_as_reference(texts, monkeypatch):
    """load_kb against kb_reference.load_kb, first with coli's per-line parse
    functions, then with the recursive-descent reference parser; returns
    the reference outcomes."""
    got = [_load_outcome(load_kb, text) for text in texts]
    for parsers in ((parse_formula, parse_pattern), (_ref_formula, _ref_pattern)):
        monkeypatch.setattr(kb_reference, "parse_formula", parsers[0])
        monkeypatch.setattr(kb_reference, "parse_pattern", parsers[1])
        want = [_load_outcome(kb_reference.load_kb, text) for text in texts]
        for text, g, w in zip(texts, got, want):
            assert g == w, text
    return want


def test_kb_lines_match_reference(monkeypatch):
    rng = random.Random(5006)
    want = _assert_loads_as_reference([_random_kb_file(rng) for _ in range(600)],
                                      monkeypatch)
    messages = " ".join(w[1] for w in want if w[0] == "error")
    for part in ("missing '='", "definitions start with '/'", "unclosed pattern",
                 "directory name must be one identifier", "query line needs",
                 "overlapping patterns", "redefinition changes arity",
                 "unexpected character", "expected a formula", "expected a term",
                 "unbound variable", "trailing input", "(line 5, col "):
        assert part in messages
    loaded = [w for w in want if w[0] == "ok"]
    assert len(loaded) > 100 and any(w[1] for w in loaded)
    assert any(d[0] for w in loaded for d in w[2].values())  # pattern clauses


def test_kb_errors_at_every_position_match_reference(monkeypatch):
    rng = random.Random(5008)
    texts = []
    for _ in range(4):
        base = "/m(0) = p(1)\r\n# é\n/m(s(X)) = @x. q(x,X)\x0cquery /m\n/n = !/m(2)\n"
        base = base.replace("p(1)", pretty(_random_formula(rng, set(), 2)))
        for i in range(len(base) + 1):
            texts.append(base[:i] + rng.choice("?)(/é=. ,X#") + base[i:])
    want = _assert_loads_as_reference(texts, monkeypatch)
    assert sum(w[0] == "error" for w in want) > len(texts) // 2


def _script_variants(rng):
    for name in ("fact.coli", "fact_short.coli", "q_restricted.coli", "ident.coli"):
        base = data_text(name)
        for _ in range(25):
            lines = []
            for line in base.splitlines():
                line = line.replace("  ", rng.choice(["  ", "\t", " \t"]))
                if rng.random() < 0.3:
                    line += rng.choice([" % note", "%", "\t% x % y"])
                lines.append(line)
            text = "\n".join(lines) + rng.choice(["", "\n", " % end", "\n\t"])
            yield _mutate(rng, text) if rng.random() < 0.3 else text


def test_token_positions_in_scripts_match_reference():
    rng = random.Random(5007)
    for text in _script_variants(rng):
        try:
            ref = _ref_tokenize(text, "%")
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                tokenize(text, "%")
            assert (str(err.value), err.value.line, err.value.col) == (
                str(exc), exc.line, exc.col)
            continue
        assert tokenize(text, "%") == [tok.value for tok in ref]
        ts = TokenStream(text, "%")
        for index, tok in enumerate(ref):
            with pytest.raises(ParseError) as err:
                ts.error("here", index)
            assert (err.value.line, err.value.col) == (tok.line, tok.col), (text, index)


def test_every_text_path_lexes_through_tokenize(monkeypatch):
    # bench/tracer.py replaces coli.parser.tokenize wherever a coli module
    # holds it and reports the lengths it returns as parser.tokens
    lexed = []

    def counting(text, comment=None):
        lexed.append(len(tokenize(text, comment)))
        return tokenize(text, comment)

    for name, module in list(sys.modules.items()):
        if name == "coli" or name.startswith("coli."):
            for key, value in list(vars(module).items()):
                if value is tokenize:
                    monkeypatch.setattr(module, key, counting)

    def ref_lengths(*texts, comment=None):
        return [len(_ref_tokenize(text, comment)) for text in texts]

    paths = [
        (load_kb, data_text("rec.kb"), ref_lengths("0", "q", "s(X)", "p /\\ !/m(X)")),
        (parse_pattern, "f(X, s(Y))", ref_lengths("f(X, s(Y))")),
        (parse_dirref, "!/m(3)", ref_lengths("!/m(3)")),
        (parse_formula, "@y. #z. fact(y,z)", ref_lengths("@y. #z. fact(y,z)")),
        (parse_script, data_text("fact.coli"),
         ref_lengths(data_text("fact.coli"), comment="%")),
    ]
    for parse, text, lengths in paths:
        lexed.clear()
        parse(text)
        assert lexed == lengths, parse.__name__


def test_token_counts_of_data_files_match_reference():
    for path in sorted(p for p in DATA.iterdir() if p.is_file()):
        comment = "%" if path.suffix == ".coli" else None
        text = path.read_text()
        assert len(tokenize(text, comment)) == len(_ref_tokenize(text, comment)), path.name

@pytest.mark.parametrize("text, message", [
    ('algorithm a {\n\t/q.read(n)\n}',
     "expected ';', found '}' (line 3, col 1)"),
    ('algorithm a { % c\n  for i = 1 to n {\n\t/d.i.wrote;\n  }\n}',
     'path statement must end in .read(v) or .write (line 3, col 12)'),
    ('algorithm a {\n  choose(/q.1: jump);\n}',
     "unknown rule 'jump' (expected one of read, write, replicate, close) (line 2, col 16)"),
    ('algorithm a {\n  prove; % done',
     "expected '}', found 'end of input' (line 2, col 10)"),
    ('algorithm a {\n  prove; % done\n\t',
     "expected '}', found 'end of input' (line 3, col 2)"),
    ('algorithm a {\n  if n ! 2 { prove; }\n}',
     "expected a comparison, found '!' (line 2, col 8)"),
    ('algorithm a {\n  /q.(.write;\n}',
     "bad path segment '(' (line 2, col 6)"),
    ('algorithm a {\n  choose(/q.$: write);\n}',
     "bad path segment '$' (line 2, col 13)"),
    ('algorithm a {\n  bogus;\n}',
     "unknown statement 'bogus' (line 2, col 3)"),
    ('algorithm a {\n  for i = ; to 2 {}\n}',
     "expected a term, found ';' (line 2, col 11)"),
    ('algorithm a { prove; } execute;',
     "trailing input 'execute' (line 1, col 24)"),
    ('algo a {}',
     "expected 'algorithm', found 'algo' (line 1, col 1)"),
    ('algorithm 1 {}',
     "expected algorithm name, found '1' (line 1, col 11)"),
    ('algorithm a {\n\t\t/q.read(n); ?\n}',
     "unexpected character '?' (line 2, col 15)"),
    ('algorithm a {\n  /q\n}',
     'path statement must end in .read(v) or .write (line 3, col 1)'),
    ('algorithm a {\n  schoose(/q.1: write, /r: read close, /s: write);\n}',
     "expected ')', found 'close' (line 2, col 33)"),
])
def test_script_error_positions(text, message):
    with pytest.raises(ParseError) as err:
        parse_script(text)
    assert str(err.value) == message
