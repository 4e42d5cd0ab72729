"""CLI golden cases: each invocation's stdout and exit code, stored under
tests/data.

A case's command names its files relative to tests/data.  Its stdout is
stored in tests/data/golden/NAME.out unless the case names an older golden
file, and every exit code is stored in tests/data/golden/exit_codes.json.

Regenerate the stored outputs (only when a change to the output is intended):

    PYTHONPATH=src python tests/golden_cases.py
"""

import contextlib
import io
import json
from pathlib import Path

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

# name -> command line; a token ending in .kb or .coli is a file in tests/data
CASES = {
    "fact3": "run --kb fact.kb --script fact.coli --inputs 3 --trace",
    "fact_short9": "run --kb fact.kb --script fact_short.coli --inputs 9 --trace",
    "run-fact-short-0": "run --kb fact.kb --script fact_short.coli --inputs 0 --trace",
    "run-fact-short-5": "run --kb fact.kb --script fact_short.coli --inputs 5 --trace",
    "run-fact-short-12": "run --kb fact.kb --script fact_short.coli --inputs 12 --trace",
    "run-fact-20": "run --kb fact.kb --script fact.coli --inputs 20 --trace",
    "run-ident": "run --kb ident.kb --script ident.coli --inputs 2 --trace",
    "run-q-free": "run --kb q.kb --script q_free.coli --max-replicas 8 --trace",
    "run-q-restricted": "run --kb q.kb --script q_restricted.coli --trace",
    "run-execute-only": "run --kb fact.kb --script golden/execute_only.coli",
    "prove-fact": "prove --kb fact.kb --max-replicas 3",
    "prove-ident": "prove --kb ident.kb",
    "prove-q": "prove --kb q.kb --max-replicas 6 --trace",
    "expand-dirs-o": "expand --kb dirs.kb /o",
    "expand-dirs-o-graph": "expand --kb dirs.kb /o --graph",
    "expand-dirs-n-graph": "expand --kb dirs.kb /n --graph",
    "expand-rec-m3": "expand --kb rec.kb /m(s(s(s(0))))",
    "expand-rec-m3-graph": "expand --kb rec.kb /m(s(s(s(0)))) --graph",
}

# cases whose stdout predates this table and lives beside the data files
OLDER = {"fact3": "fact3.trace", "fact_short9": "fact_short9.trace"}


def argv(name: str) -> list:
    return [str(DATA / tok) if tok.endswith((".kb", ".coli")) else tok
            for tok in CASES[name].split()]


def stdout_path(name: str) -> Path:
    return DATA / OLDER[name] if name in OLDER else GOLDEN / f"{name}.out"


def run_case(name: str):
    """(exit code, stdout) of one case, run in process."""
    from coli.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv(name))
    return code, out.getvalue()


def regenerate():
    codes = {}
    for name in CASES:
        codes[name], text = run_case(name)
        stdout_path(name).write_text(text)
    EXIT_CODES.write_text(json.dumps(codes, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
