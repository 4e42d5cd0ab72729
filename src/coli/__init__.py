"""Interpreter and bounded prover for service-style game logic.

Knowledge bases define named services as formulas (directories); proof
scripts drive the resulting game configuration through read, write and
replicate moves; `prove` extracts a winning strategy within bounds and
`execute` settles global variables by unification.
"""

from .configuration import (Configuration, Move, MoveOption, Path, ReadMove,
                            ReplicateMove, WriteMove, apply_read, apply_write,
                            init_configuration, legal_moves, move_line,
                            replay, replicate)
from .directories import (DirectoryDef, DirectoryTable, expand, load_kb,
                          match_pattern)
from .errors import (BoundError, ChannelError, ColiError, ConfigError,
                     DepthLimitError, ExpandError, KBError, ParseError,
                     SharedNodeError)
from .formulas import (All, And, Atom, DirRef, Exists, Formula, Implies, Neg,
                       Or, Recur, pretty)
from .graphs import FormulaGraph, GNode
from .parser import parse_dirref, parse_formula, parse_term
from .prover import (Bounds, EnvBranch, Leaf, ProveResult, Restriction, Step,
                     Strategy, prove, render_strategy, strategy_moves,
                     term_universe, validate_restrictions)
from .scripts import (InteractiveChannel, ListChannel, Outcome, Script,
                      ScriptEnv, execute_strategy, parse_script, run_script)
from .solver import (ClosureResult, Substitution, close_elementary,
                     eval_ground, unify, unify_atoms)
from .terms import App, Const, GVar, Num, Term, Var, pretty_term

__version__ = "0.1.0"
