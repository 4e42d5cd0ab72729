"""Command-line front end.

Commands:
    run     load a KB and a script, play the game, print the result
    prove   search for a winning strategy for the query directly
    expand  print a directory reference's expansion (``--graph`` for sharing)
    check   parse the KB (and script, if given), build the output service's
            initial configuration when one is named, and report OK

Exit codes: 0 won / OK; 1 lost or proof search exhausted; 2 usage, parse or
runtime error, including input nested too deeply for the interpreter's stack
and memory exhaustion; 3 a bound was exceeded (bounded proof search, replica
limits).
"""

from __future__ import annotations

import argparse
import sys

from . import formulas as F
from .configuration import init_configuration
from .directories import _name, expand, load_kb
from .errors import BoundError, ColiError
from .parser import parse_dirref

# prover and scripts are imported inside the commands that use them, so that
# `expand` and a `check` without a script never compile them

EXIT_WON = 0
EXIT_LOST = 1
EXIT_ERROR = 2
EXIT_BOUND = 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (ColiError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        # a deep input overflowed some recursive walk: not a lost game
        print("error: input nested too deeply (recursion limit reached)",
              file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coli",
        description="Run proof scripts against knowledge-base services.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kb", required=True, help="knowledge-base file")
    common.add_argument("--query", help="output service, e.g. /query "
                                        "(default: the KB's query line)")
    common.add_argument("--max-depth", type=int, default=64,
                        help="proof search depth bound (default 64)")
    common.add_argument("--max-replicas", type=int, default=32,
                        help="proof search replication bound (default 32)")
    common.add_argument("--trace", action="store_true",
                        help="print MOVE/CLOSE lines as the game advances")

    p_run = sub.add_parser("run", parents=[common], help="run a proof script")
    p_run.add_argument("--script", required=True, help="script file")
    p_run.add_argument("--inputs", default=None,
                       help="comma-separated environment values, e.g. 3 or 2,5")
    p_run.add_argument("--interactive", action="store_true",
                       help="prompt for environment values on stdin")
    p_run.set_defaults(handler=cmd_run)

    p_prove = sub.add_parser("prove", parents=[common],
                             help="search for a winning strategy")
    p_prove.set_defaults(handler=cmd_prove)

    p_expand = sub.add_parser("expand", parents=[common],
                              help="expand a directory reference")
    p_expand.add_argument("ref", help="reference text, e.g. '/m(s(s(0)))'")
    p_expand.add_argument("--graph", action="store_true",
                          help="print the node listing with in-degrees")
    p_expand.set_defaults(handler=cmd_expand)

    p_check = sub.add_parser("check", parents=[common], help="parse only")
    p_check.add_argument("--script", help="script file")
    p_check.set_defaults(handler=cmd_check)
    return parser


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ColiError(f"{path}: not UTF-8 text ({exc.reason} "
                        f"at byte {exc.start})") from None


def _load_table(args):
    table = load_kb(_read_text(args.kb))
    if args.query is not None:  # checked as a KB's query line is
        table.query = _name(args.query.removeprefix("/"))
    return table


def _bounds(args):
    from .prover import Bounds
    if args.max_depth < 1 or args.max_replicas < 1:
        raise ColiError("bounds must be positive")
    return Bounds(max_depth=args.max_depth, max_replicas=args.max_replicas)


def cmd_run(args) -> int:
    from .scripts import (InteractiveChannel, ListChannel, ScriptEnv,
                          parse_script, run_script)
    table = _load_table(args)
    script = parse_script(_read_text(args.script))
    if args.interactive and args.inputs is not None:
        raise ColiError("choose one of --inputs and --interactive")
    if args.interactive:
        channel = InteractiveChannel()
    else:
        values = [v for v in (args.inputs or "").split(",") if v != ""]
        channel = ListChannel(values)
    cfg = init_configuration(table)
    sink = (lambda line: print(line)) if args.trace else None
    env = ScriptEnv(channel=channel, bounds=_bounds(args), trace_sink=sink)
    outcome, _cfg = run_script(script, cfg, env)
    if outcome.won:
        if args.trace:
            print(f"CLOSE subst={outcome.subst.render()}")
        print(f"RESULT {F.pretty(outcome.result)}")
        return EXIT_WON
    if outcome.reason in ("exhausted", "bounded"):
        print(f"PROVE fail reason={outcome.reason} steps={outcome.steps}")
        return EXIT_BOUND if outcome.reason == "bounded" else EXIT_LOST
    print(f"LOST reason={outcome.reason}")
    return EXIT_LOST


def cmd_prove(args) -> int:
    from .prover import prove, render_strategy
    table = _load_table(args)
    cfg = init_configuration(table)
    sink = (lambda line: print(line)) if args.trace else None
    result = prove(cfg, (), _bounds(args), sink)
    if result.ok:
        print(render_strategy(result.strategy))
        return EXIT_WON
    print(f"PROVE fail reason={result.reason} steps={result.steps}")
    return EXIT_BOUND if result.reason == "bounded" else EXIT_LOST


def cmd_expand(args) -> int:
    table = _load_table(args)
    ref = parse_dirref(args.ref)
    graph = expand(table, ref)
    if args.graph:
        print(graph.listing())
    else:
        print(F.pretty(graph.to_formula()))
    return EXIT_WON


def cmd_check(args) -> int:
    table = _load_table(args)
    if table.query:  # fail as run and prove would on this output service
        init_configuration(table)
    if args.script:
        from .scripts import parse_script
        parse_script(_read_text(args.script))
    print("OK")
    return EXIT_WON


if __name__ == "__main__":
    sys.exit(main())
