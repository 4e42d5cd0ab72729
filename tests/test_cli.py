"""Command-line behavior: exit codes, output lines, trace goldens,
interactive mode."""

import io
import json
import sys

import pytest

from coli import cli
from coli.cli import main

import golden_cases
from conftest import data_path, data_text, run_coli, run_python


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_factorial(capsys):
    code, out, _ = run_cli(capsys, "run", "--kb", data_path("fact.kb"),
                           "--script", data_path("fact.coli"), "--inputs", "3")
    assert code == 0
    assert out == "RESULT fact(3,6)\n"


def test_run_factorial_five(capsys):
    code, out, _ = run_cli(capsys, "run", "--kb", data_path("fact.kb"),
                           "--script", data_path("fact.coli"), "--inputs", "5")
    assert code == 0
    assert out == "RESULT fact(5,120)\n"


def test_run_missing_kb(capsys):
    code, _, err = run_cli(capsys, "run", "--kb", data_path("nosuch.kb"),
                           "--script", data_path("fact.coli"), "--inputs", "3")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("name", list(golden_cases.CASES))
def test_cli_matches_golden(name):
    code, out = golden_cases.run_case(name)
    assert out == golden_cases.stdout_path(name).read_text()
    assert code == json.loads(golden_cases.EXIT_CODES.read_text())[name]


def test_run_restricted_q_exits_1(capsys):
    code, out, _ = run_cli(capsys, "run", "--kb", data_path("q.kb"),
                           "--script", data_path("q_restricted.coli"))
    assert code == 1
    assert out.startswith("PROVE fail reason=exhausted steps=")


def test_run_unrestricted_q_exits_3(capsys):
    code, out, _ = run_cli(capsys, "run", "--kb", data_path("q.kb"),
                           "--script", data_path("q_free.coli"),
                           "--max-replicas", "6", "--trace")
    assert code == 3
    assert "PROVE fail reason=bounded" in out
    replicates = [l for l in out.splitlines() if l.startswith("MOVE replicate")]
    assert len(replicates) >= 6


def test_prove_command_success(capsys):
    code, out, _ = run_cli(capsys, "prove", "--kb", data_path("ident.kb"))
    assert code == 0
    assert "branch read /query" in out
    assert "close" in out


def test_prove_command_bounded(capsys):
    code, out, _ = run_cli(capsys, "prove", "--kb", data_path("fact.kb"),
                           "--max-replicas", "4")
    assert code == 3
    assert out.startswith("PROVE fail reason=bounded")


def test_prove_shared_quantifier_is_exhausted(capsys, tmp_path):
    # the shared #x is read-only, so no move exists and closure fails
    kb = tmp_path / "shared.kb"
    kb.write_text("/m = #x. p(x)\n/o = /m /\\ /m\nquery /o\n")
    code, out, err = run_cli(capsys, "prove", "--kb", str(kb))
    assert code == 1
    assert out == "PROVE fail reason=exhausted steps=1\n"
    assert err == ""


def test_deep_prove_subprocess(tmp_path):
    # 330 nested conjunctions: every walk of a prove fits the default stack
    kb = tmp_path / "deep.kb"
    kb.write_text(data_text("rec.kb") + "/query = /m(330)\nquery /query\n")
    proc = run_coli("prove", "--kb", str(kb))
    assert proc.returncode == 1
    assert proc.stdout == "PROVE fail reason=exhausted steps=1\n"
    assert proc.stderr == ""


def test_deep_prove_past_the_default_stack_subprocess(tmp_path):
    # 500 nested conjunctions: deeper than any recursive walk could go
    kb = tmp_path / "deep.kb"
    ref = "/m(" + "s(" * 500 + "0" + ")" * 501
    kb.write_text(data_text("rec.kb") + f"/query = {ref}\nquery /query\n")
    proc = run_coli("prove", "--kb", str(kb))
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == "PROVE fail reason=exhausted steps=1\n"


def test_prove_deep_terms_subprocess(tmp_path):
    # 600 nested s(...) in an atom's argument: position keys take no frame
    # per level of a term
    kb = tmp_path / "deep.kb"
    term = "s(" * 600 + "0" + ")" * 600
    kb.write_text(f"/c = q({term})\n/query = p({term})\nquery /query\n")
    proc = run_coli("prove", "--kb", str(kb))
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == "PROVE fail reason=exhausted steps=1\n"


def test_read_under_deep_negations_subprocess(tmp_path):
    # a read substitutes its value through 1,000 nested ~ without a frame
    # per level
    kb = tmp_path / "deep.kb"
    kb.write_text("/query = @y. " + "~" * 1000 + "p(y)\nquery /query\n")
    script = tmp_path / "read.coli"
    script.write_text("algorithm a {\n  /query.read(n);\n}\n")
    proc = run_coli("run", "--kb", str(kb), "--script", str(script),
                    "--inputs", "3")
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == "LOST reason=script ended without closing\n"


def test_prove_deep_output_subprocess(tmp_path):
    # a won game whose output is a 600-part conjunction: the closure
    # precheck and the won output's substitution take no frame per part
    kb = tmp_path / "deep.kb"
    kb.write_text("/f = p\n/query = " + " /\\ ".join(["p"] * 600)
                  + "\nquery /query\n")
    proc = run_coli("prove", "--kb", str(kb))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "close\n"


def test_prove_collapse_candidates_from_deep_terms_subprocess(tmp_path):
    # a collapsing write draws its candidate terms from every term in play;
    # the scan takes no frame per level of a 1,000-deep term
    kb = tmp_path / "deep.kb"
    term = "s(" * 1000 + "0" + ")" * 1000
    kb.write_text(f"/c = q({term})\n/query = $ #x. p(x)\nquery /query\n")
    proc = run_coli("prove", "--kb", str(kb))
    assert (proc.returncode, proc.stderr) == (3, "")
    assert proc.stdout == "PROVE fail reason=bounded steps=131\n"


def test_prove_replicates_a_deep_body_subprocess(tmp_path):
    # replicating a 500-deep recurrence body copies it without a frame per
    # level, and equal deep positions compare without one either
    kb = tmp_path / "deep.kb"
    ref = "/m(" + "s(" * 500 + "0" + ")" * 501
    kb.write_text(data_text("rec.kb") + f"/i = $ !{ref}\n"
                  "/query = #z. r(z)\nquery /query\n")
    proc = run_coli("prove", "--kb", str(kb), "--max-replicas", "1")
    assert (proc.returncode, proc.stderr) == (3, "")
    assert proc.stdout == "PROVE fail reason=bounded steps=7\n"


def test_expand_deep_reference_subprocess():
    # the reference parses at 1,000 nested s(...); expansion hits its bound
    ref = "/m(" + "s(" * 1000 + "0" + ")" * 1001
    proc = run_coli("expand", "--kb", data_path("rec.kb"), ref)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: expansion of /m exceeded depth 1024\n"


@pytest.mark.parametrize("depth", [600, 900])
def test_expand_prints_a_deep_term_subprocess(tmp_path, depth):
    # the term printer takes no frame per level of nesting
    term = "s(" * depth + "0" + ")" * depth
    kb = tmp_path / "deep.kb"
    kb.write_text(f"/c = q({term})\n/query = #x. q(x)\nquery /query\n")
    proc = run_coli("expand", "--kb", str(kb), "/c")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"q({term})\n"


def test_expand_recursive(capsys):
    code, out, _ = run_cli(capsys, "expand", "--kb", data_path("rec.kb"),
                           "/m(s(s(s(0))))")
    assert code == 0
    assert out == "p /\\ (p /\\ (p /\\ q))\n"


def test_expand_graph_copy_vs_shared(capsys):
    code, out, _ = run_cli(capsys, "expand", "--kb", data_path("dirs.kb"),
                           "/n", "--graph")
    assert code == 0
    assert len([l for l in out.splitlines() if "p(a)" in l]) == 2

    code, out, _ = run_cli(capsys, "expand", "--kb", data_path("dirs.kb"),
                           "/o", "--graph")
    assert code == 0
    shared = [l for l in out.splitlines() if "p(a)" in l]
    assert len(shared) == 1 and "in=2" in shared[0]


def test_expand_undefined_exits_2(capsys):
    code, _, err = run_cli(capsys, "expand", "--kb", data_path("dirs.kb"),
                           "/nowhere")
    assert code == 2 and "error" in err


def test_check_ok_and_broken(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "check", "--kb", data_path("fact.kb"),
                           "--script", data_path("fact.coli"))
    assert code == 0 and out == "OK\n"
    bad = tmp_path / "bad.kb"
    bad.write_text("/c == oops\n")
    code, _, err = run_cli(capsys, "check", "--kb", str(bad))
    assert code == 2 and "error" in err


@pytest.mark.parametrize("kb", [
    "/a = p /\\ !/nothere\nquery /a\n",  # an undefined directory
    "/a = p\nquery /nope\n",  # an undefined service
])
def test_check_rejects_what_prove_rejects(capsys, tmp_path, kb):
    path = tmp_path / "bad.kb"
    path.write_text(kb)
    prove = run_cli(capsys, "prove", "--kb", str(path))
    assert prove[0] == 2 and prove[2].count("\n") == 1
    assert run_cli(capsys, "check", "--kb", str(path)) == prove


def test_check_builds_the_service_that_query_names(capsys):
    # rec.kb has no query line, so only the KB is checked unless --query
    # names an output service
    kb = ("--kb", data_path("rec.kb"))
    assert run_cli(capsys, "check", *kb) == (0, "OK\n", "")
    assert run_cli(capsys, "check", *kb, "--query", "/nope") \
        == (2, "", "error: undefined service /nope\n")


# In process every coli module is already imported, so these run `python -m
# coli` in a fresh interpreter, which imports prover and scripts only inside
# the commands that use them.
@pytest.mark.parametrize("name", ["fact3", "prove-q", "expand-rec-m3-graph"])
def test_golden_case_in_a_fresh_interpreter(name):
    proc = run_coli(*golden_cases.argv(name))
    assert proc.stdout == golden_cases.stdout_path(name).read_text()
    assert proc.returncode == json.loads(golden_cases.EXIT_CODES.read_text())[name]
    assert proc.stderr == ""


def test_check_with_a_script_in_a_fresh_interpreter():
    proc = run_coli("check", "--kb", data_path("fact.kb"),
                    "--script", data_path("fact.coli"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "OK\n", "")


@pytest.mark.parametrize("argv", [
    ["expand", "--kb", data_path("rec.kb"), "/m(s(s(s(0))))", "--graph"],
    ["check", "--kb", data_path("fact.kb")],
])
def test_expand_and_check_leave_the_prover_unloaded(argv):
    child = ("import sys\nfrom coli.cli import main\ncode = main(sys.argv[1:])\n"
             "print(code, *sorted(m for m in sys.modules if m.startswith('coli.')))")
    proc = run_python("-c", child, *argv)
    code, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0" and proc.stderr == ""
    assert not {"coli.prover", "coli.scripts", "coli.solver"} & set(loaded)


def test_interactive_matches_batch(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("4\n"))
    code, out, _ = run_cli(capsys, "run", "--kb", data_path("fact.kb"),
                           "--script", data_path("fact.coli"), "--interactive")
    assert code == 0
    assert out.endswith("RESULT fact(4,24)\n")

    code, batch, _ = run_cli(capsys, "run", "--kb", data_path("fact.kb"),
                             "--script", data_path("fact.coli"),
                             "--inputs", "4")
    assert code == 0
    assert batch == "RESULT fact(4,24)\n"


def test_interactive_zero(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("0\n"))
    code, out, _ = run_cli(capsys, "run", "--kb", data_path("fact.kb"),
                           "--script", data_path("fact.coli"), "--interactive")
    assert code == 0
    assert out.endswith("RESULT fact(0,1)\n")


def test_interactive_three_strikes(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("abc\nxy\n!!\n"))
    code, out, err = run_cli(capsys, "run", "--kb", data_path("fact.kb"),
                             "--script", data_path("fact.coli"),
                             "--interactive")
    assert code == 2
    assert out.count("ENV move at /query (@y): ") == 3
    assert "error" in err


def test_interactive_reprompts_then_succeeds(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("first\n2\n"))
    code, out, _ = run_cli(capsys, "run", "--kb", data_path("fact.kb"),
                           "--script", data_path("fact.coli"), "--interactive")
    assert code == 0
    assert out.endswith("RESULT fact(2,2)\n")
    assert out.count("ENV move at /query (@y): ") == 2


def test_interactive_unconvertible_numerals_are_strikes(capsys, monkeypatch):
    # "²" is a digit but no decimal; 4,301 digits are more than int() converts
    monkeypatch.setattr(sys, "stdin", io.StringIO("\u00b2\n" + "9" * 4301 + "\n3\n"))
    code, out, err = run_cli(capsys, "run", "--kb", data_path("fact.kb"),
                             "--script", data_path("fact.coli"), "--interactive")
    assert (code, err) == (0, "")
    assert out.endswith("RESULT fact(3,6)\n")
    assert out.count("ENV move at /query (@y): ") == 3


@pytest.mark.parametrize("value", ["abc", "3.5"])
def test_non_numeric_input_exits_2(capsys, value):
    code, out, err = run_cli(capsys, "run", "--kb", data_path("fact.kb"),
                             "--script", data_path("fact.coli"), "--inputs", value)
    assert (code, out) == (2, "")
    assert err == f"error: environment values must be naturals, got {value!r}\n"


@pytest.mark.parametrize("which, text, byte", [
    ("kb", b"/c = fact(0,1)\n# caf\xe9\n", 20),
    ("script", b"algorithm a {\n  execute; % \xff\n}\n", 27),
], ids=["kb", "script"])
def test_file_not_utf8_exits_2(capsys, tmp_path, which, text, byte):
    files = {"kb": data_path("fact.kb"), "script": data_path("fact.coli")}
    files[which] = str(tmp_path / f"bad.{which}")
    (tmp_path / f"bad.{which}").write_bytes(text)
    code, out, err = run_cli(capsys, "run", "--kb", files["kb"],
                             "--script", files["script"], "--inputs", "3")
    assert (code, out) == (2, "")
    reason = "invalid continuation" if which == "kb" else "invalid start"
    assert err == f"error: {files[which]}: not UTF-8 text ({reason} byte at byte {byte})\n"


HUGE = "7" * 4301  # more digits than int() converts by default


@pytest.mark.parametrize("kb, script, inputs, message", [
    (f"/c = p({HUGE})\nquery /c\n", None, "3",
     "line 1: numeral too long (4301 digits) (line 1, col 8)"),
    (None, f"algorithm a {{\n  /c.{HUGE}.write;\n}}\n", "3",
     "numeral too long (4301 digits) (line 2, col 6)"),
    (None, None, f"1,{HUGE}",
     "numeral too long (4301 digits) in environment value 2"),
], ids=["kb", "script", "inputs"])
def test_huge_numeral_is_a_parse_error(capsys, tmp_path, kb, script, inputs, message):
    kb_path, script_path = data_path("fact.kb"), data_path("fact.coli")
    if kb is not None:
        kb_path = str(tmp_path / "huge.kb")
        (tmp_path / "huge.kb").write_text(kb)
    if script is not None:
        script_path = str(tmp_path / "huge.coli")
        (tmp_path / "huge.coli").write_text(script)
    code, out, err = run_cli(capsys, "run", "--kb", kb_path, "--script",
                             script_path, "--inputs", inputs)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("line, col", [("/c = p(a,", 10),
                                       ("/c   =   p(a,", 14),
                                       ("  /m(s(X)) = p(a,", 18),
                                       ("/m(s(X,) = p", 8)],
                         ids=["rhs", "rhs-spaced", "indented", "pattern"])
def test_kb_parse_error_reports_the_file_column(capsys, tmp_path, line, col):
    kb = tmp_path / "bad.kb"
    kb.write_text(f"# a comment\n/k = q\n{line}\n")
    code, out, err = run_cli(capsys, "check", "--kb", str(kb))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 3: expected a term, found ")
    assert err.endswith(f" (line 3, col {col})\n")


def test_run_prints_numerals_past_4300_digits(capsys, tmp_path):
    # str() refuses ints of more than 4,300 digits; the product has 4,400
    ones, nines = "1" * 2200, "9" * 2200
    kb = tmp_path / "big.kb"
    kb.write_text(f"/c = p({ones}*{nines})\n/query = #z. p(z)\nquery /query\n")
    script = tmp_path / "big.coli"
    script.write_text("algorithm a {\n  /query.write;\n  execute;\n}\n")
    code, out, err = run_cli(capsys, "run", "--kb", str(kb), "--script",
                             str(script))
    product = "1" * 2199 + "0" + "8" * 2199 + "9"  # as 11 * 99 = 1089
    assert (code, out, err) == (0, f"RESULT p({product})\n", "")


def test_expand_parenthesizes_terms(capsys, tmp_path):
    kb = tmp_path / "terms.kb"
    kb.write_text("/m(X) = p(X)\n/k(X) = /m(a*X) /\\ /m(a*b+c)\n/o = /k(b+c)\n")
    code, out, _ = run_cli(capsys, "expand", "--kb", str(kb), "/o")
    assert (code, out) == (0, "p(a*(b+c)) /\\ p(a*b+c)\n")


def test_inputs_and_interactive_conflict(capsys):
    code, _, err = run_cli(capsys, "run", "--kb", data_path("fact.kb"),
                           "--script", data_path("fact.coli"),
                           "--inputs", "3", "--interactive")
    assert code == 2 and "error" in err


def test_missing_query_designation_exits_2(capsys):
    code, _, err = run_cli(capsys, "prove", "--kb", data_path("dirs.kb"))
    assert code == 2 and "query" in err


@pytest.mark.parametrize("kb, line, name", [
    ("/c = p\nquery /a b\n", 2, "a b"),
    ("/c = p\nquery /a(3)\n", 2, "a(3)"),
    ("/c = p\nquery /\n", 2, ""),
    ("/a b = p\nquery /a b\n", 1, "a b"),  # proved lost (exit 1) before
    ("/a b = q\n/q = p\nquery /q\n", 1, "a b"),  # exit 1 before
    ("/q = p\n/a b = p\nquery /q\n", 2, "a b"),  # won (exit 0) before
    ("/q = p\n/m b(X) = p\nquery /q\n", 2, "m b"),
])
def test_directory_names_are_one_identifier(capsys, tmp_path, kb, line, name):
    path = tmp_path / "names.kb"
    path.write_text(kb)
    for command in ("check", "prove"):
        code, out, err = run_cli(capsys, command, "--kb", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: line {line}: directory name must be one "
                       f"identifier, found {name!r}\n")


def test_uppercase_initial_directory_is_referenced(capsys, tmp_path):
    # a directory name is any identifier, in a body as in a definition head
    path = tmp_path / "upper.kb"
    path.write_text("/A = p\n/b = /A /\\ !/A\nquery /b\n")
    kb = ("--kb", str(path))
    assert run_cli(capsys, "check", *kb) == (0, "OK\n", "")
    assert run_cli(capsys, "prove", *kb) == (0, "close\n", "")
    assert run_cli(capsys, "expand", "/A", *kb) == (0, "p\n", "")
    assert run_cli(capsys, "expand", "!/A", *kb) == (0, "p\n", "")
    assert run_cli(capsys, "expand", "/b", *kb) == (0, "p /\\ p\n", "")
    script = tmp_path / "upper.coli"  # and in a script's path
    script.write_text("algorithm t { choose(/A: write); prove; execute; }\n")
    assert run_cli(capsys, "run", *kb, "--script", str(script)) \
        == (0, "RESULT p /\\ p\n", "")


def test_executed_write_replaces_the_eigenvariable(capsys, tmp_path):
    # negation in the output makes the search write concrete terms, and the
    # winning one names the environment's value by its eigenvariable; the
    # executed strategy writes the value read in its place
    kb = tmp_path / "eigen.kb"
    kb.write_text("/f = $ @z. eq(z,z)\n"
                  "/query = @x. #y. (~neq(x,y) /\\ eq(x,y))\nquery /query\n")
    script = tmp_path / "pe.coli"
    script.write_text("algorithm t { prove; execute; }\n")
    code, out, _ = run_cli(capsys, "prove", "--kb", str(kb))
    assert code == 0 and "  write /query term=_e1\n" in out
    for value in (0, 1, 7, 12):
        code, out, _ = run_cli(capsys, "run", "--kb", str(kb), "--script",
                               str(script), "--inputs", str(value), "--trace")
        executed = out.split(f"MOVE read /query value={value} var=x\n")[1]
        assert code == 0
        assert executed == (
            f"MOVE replicate /f idx=1\nMOVE write /f.1 var=W1\n"
            f"MOVE write /query term={value}\nCLOSE subst={{W1={value}}}\n"
            f"RESULT ~neq({value},{value}) /\\ eq({value},{value})\n")


def test_check_broken_script_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.coli"
    bad.write_text("algorithm t { /q.frob; }")
    code, _, err = run_cli(capsys, "check", "--kb", data_path("fact.kb"),
                           "--script", str(bad))
    assert code == 2 and "error" in err


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_interpreter_exhaustion_exits_2(capsys, monkeypatch, exc):
    def handler(args):
        raise exc()

    monkeypatch.setattr(cli, "cmd_prove", handler)
    code, out, err = run_cli(capsys, "prove", "--kb", data_path("fact.kb"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_query_flag_overrides_kb(capsys):
    # dirs.kb has no query line; /o closes immediately (shared output atoms
    # are readable facts), so prove prints a bare closing strategy
    code, out, _ = run_cli(capsys, "prove", "--kb", data_path("dirs.kb"),
                           "--query", "/o")
    assert code == 0
    assert out.strip() == "close"


def test_interactive_strategy_branch(capsys, monkeypatch):
    # prove runs before any read, so the strategy itself carries the
    # environment branch; the prompt comes from walking it
    monkeypatch.setattr(sys, "stdin", io.StringIO("5\n"))
    code, out, _ = run_cli(capsys, "run", "--kb", data_path("ident.kb"),
                           "--script", data_path("ident.coli"),
                           "--interactive")
    assert code == 0
    assert "ENV move at /query (@y): " in out
    assert out.endswith("RESULT id(5,5)\n")


def test_console_entry_point_subprocess():
    proc = run_coli("run", "--kb", data_path("fact.kb"),
                    "--script", data_path("fact.coli"), "--inputs", "3")
    assert proc.returncode == 0
    assert proc.stdout == "RESULT fact(3,6)\n"
