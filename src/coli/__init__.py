"""Interpreter and bounded prover for service-style game logic.

Knowledge bases define named services as formulas (directories); proof
scripts drive the resulting game configuration through read, write and
replicate moves; `prove` extracts a winning strategy within bounds and
`execute` settles global variables by unification.

Every name below is imported from its module on first access (PEP 562) and
then kept in this module's globals, so `from coli import load_kb` compiles
only the modules that loading a KB needs, not the prover or the scripts.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "configuration": "Configuration Move MoveOption Path ReadMove ReplicateMove "
                     "WriteMove apply_read apply_write init_configuration "
                     "legal_moves move_line replay replicate",
    "directories": "DirectoryDef DirectoryTable expand load_kb match_pattern",
    "errors": "BoundError ChannelError ColiError ConfigError DepthLimitError "
              "ExpandError KBError ParseError SharedNodeError",
    "formulas": "All And Atom DirRef Exists Formula Implies Neg Or Recur pretty",
    "graphs": "FormulaGraph GNode",
    "parser": "parse_dirref parse_formula parse_term",
    "prover": "Bounds EnvBranch ProveResult Restriction Strategy prove "
              "render_strategy term_universe validate_restrictions",
    "scripts": "InteractiveChannel ListChannel Outcome Script ScriptEnv "
               "execute_strategy parse_script run_script",
    "solver": "ClosureResult Substitution close_elementary unify unify_atoms",
    "terms": "App Const GVar Num Term Var eval_ground pretty_term",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}
# submodules stay reachable as attributes, e.g. `coli.prover` after `import coli`
_SUBMODULES = {*_EXPORTS, "records"}

__all__ = list(_HOME)


def _submodule(name: str):
    # the builtin __import__, not importlib.import_module, so that
    # `python -X importtime` lists the modules imported from here
    return __import__(f"{__name__}.{name}", fromlist=["*"])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
