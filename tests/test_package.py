"""The package's export surface and what its imports load.

`coli/__init__` imports each exported name from its module on first access,
so a fresh interpreter that only loads a KB never compiles the prover, the
scripts or the solver.  In-process every module is already loaded (conftest
imports them), so the import checks run in child interpreters.
"""

import json

import pytest

import coli
import coli.solver
import coli.terms

from conftest import data_path, run_python

# the names the package exported when it imported every module eagerly,
# listed by the module each name was imported from then
EXPORTS = {
    "configuration": [
        "Configuration", "Move", "MoveOption", "Path", "ReadMove",
        "ReplicateMove", "WriteMove", "apply_read", "apply_write",
        "init_configuration", "legal_moves", "move_line", "replay",
        "replicate"],
    "directories": [
        "DirectoryDef", "DirectoryTable", "expand", "load_kb", "match_pattern"],
    "errors": [
        "BoundError", "ChannelError", "ColiError", "ConfigError",
        "DepthLimitError", "ExpandError", "KBError", "ParseError",
        "SharedNodeError"],
    "formulas": [
        "All", "And", "Atom", "DirRef", "Exists", "Formula", "Implies", "Neg",
        "Or", "Recur", "pretty"],
    "graphs": ["FormulaGraph", "GNode"],
    "parser": ["parse_dirref", "parse_formula", "parse_term"],
    "prover": [
        "Bounds", "EnvBranch", "ProveResult", "Restriction", "Strategy",
        "prove", "render_strategy", "term_universe", "validate_restrictions"],
    "scripts": [
        "InteractiveChannel", "ListChannel", "Outcome", "Script", "ScriptEnv",
        "execute_strategy", "parse_script", "run_script"],
    "solver": [
        "ClosureResult", "Substitution", "close_elementary", "eval_ground",
        "unify", "unify_atoms"],
    "terms": ["App", "Const", "GVar", "Num", "Term", "Var", "pretty_term"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]
UNUSED_AT_SETUP = ["coli.prover", "coli.scripts", "coli.solver", "coli.cli"]


_LOADED = ("import json, sys; print(json.dumps(sorted("
           "m for m in sys.modules if m.split('.')[0] == 'coli')))")


@pytest.mark.parametrize("module, name", NAMES)
def test_every_name_resolves_to_its_home_object(module, name):
    home = getattr(coli, module)
    assert getattr(coli, name) is getattr(home, name)
    assert vars(coli)[name] is getattr(home, name)  # cached after first use
    assert name in coli.__all__
    assert name in dir(coli)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from coli import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(getattr(coli, module), name)
    assert "__version__" not in namespace and coli.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        coli.no_such_name


def test_all_lists_exactly_the_exports():
    assert sorted(coli.__all__) == sorted(name for _module, name in NAMES)


def test_eval_ground_lives_in_terms():
    assert coli.solver.eval_ground is coli.terms.eval_ground
    assert coli.eval_ground is coli.terms.eval_ground


def test_import_coli_loads_no_submodule():
    proc = run_python("-c", f"import coli; assert vars(coli)['__version__']; {_LOADED}")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["coli"]


def test_loading_a_kb_leaves_the_prover_scripts_and_solver_unloaded():
    code = ("import sys\nfrom coli import init_configuration, load_kb\n"
            "with open(sys.argv[1], encoding='utf-8') as fh:\n"
            "    cfg = init_configuration(load_kb(fh.read()))\n"
            f"assert cfg.output == 'q'\n{_LOADED}")
    proc = run_python("-c", code, data_path("q.kb"))
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert not set(UNUSED_AT_SETUP) & set(loaded)
    assert loaded == ["coli", "coli.configuration", "coli.directories",
                      "coli.errors", "coli.formulas", "coli.graphs",
                      "coli.parser", "coli.records", "coli.terms"]


def test_submodules_are_reached_as_attributes():
    proc = run_python("-c", f"import coli; coli.prover.prove; {_LOADED}")
    assert proc.returncode == 0, proc.stderr
    assert "coli.prover" in json.loads(proc.stdout)
