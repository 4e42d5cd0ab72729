"""Spans and counters recorded around calls into coli's public functions.

Tracing is installed from outside the program: each function listed below is
replaced, in every module of the `coli` package that holds a reference to it
(the benchmark calls coli through that package), by a wrapper that records a
span or bumps a counter.
A span is [name, start, end, parent index, nested]; `nested` marks a span
opened while another span of the same name was open, so inclusive times
count the outermost one only.  Spans stay in memory and are written out
when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter


def _store_nodes(cfg):
    return {"configuration.store_nodes": len(getattr(cfg, "nodes", ()))}


# (owner module, attribute, span name, call counter, result -> counts)
SPANS = [
    ("parser", "tokenize", "parser.tokenize", None,
     lambda toks: {"parser.tokens": len(toks)}),
    ("directories", "load_kb", "directories.load_kb", None,
     lambda table: {"directories.definitions":
                    sum(len(d.clauses) for d in table.defs.values())}),
    ("directories", "expand", "directories.expand", "directories.expand_calls",
     lambda graph: {"graphs.expanded_nodes": len(graph.nodes)}),
    ("graphs", "FormulaGraph.to_formula", "graphs.to_formula",
     "graphs.to_formula_calls", None),
    ("configuration", "init_configuration", "configuration.init", None,
     _store_nodes),
    ("configuration", "apply_read", "configuration.move", "configuration.moves",
     _store_nodes),
    ("configuration", "apply_write", "configuration.move", "configuration.moves",
     _store_nodes),
    ("configuration", "replicate", "configuration.move", "configuration.moves",
     _store_nodes),
    ("configuration", "peel_env_symbolic", "configuration.move",
     "configuration.moves", lambda pair: _store_nodes(pair[0])),
    ("configuration", "legal_moves", "configuration.legal_moves",
     "configuration.legal_moves_calls", None),
    ("solver", "close_elementary", "solver.close", "solver.close_calls",
     lambda result: {"solver.close_won": int(result.ok)}),
    ("prover", "prove", "prover.prove", None,
     lambda result: {"prover.search_nodes": result.steps}),
    ("scripts", "parse_script", "scripts.parse", None, None),
    ("scripts", "run_script", "scripts.run", None, None),
]

# Spans opened only at the outermost call of a recursive function.
OUTERMOST = {"graphs.to_formula"}

# (owner module, attribute, counter, outermost calls only)
COUNTS = [
    ("solver", "unify", "solver.unify_calls", False),
    ("solver", "Substitution.bind", "solver.bind_calls", False),
    ("terms", "subst_var", "terms.subst_calls", False),
    ("terms", "subst_gvar", "terms.subst_calls", False),
    ("terms", "subst_const", "terms.subst_calls", False),
    ("formulas", "pretty", "formulas.pretty_calls", True),
]

# every per-layer metric, with its unit
LAYER_METRICS = {
    "parser.tokenize_s": "s", "parser.tokens": "count",
    "directories.load_kb_s": "s", "directories.definitions": "count",
    "directories.expand_s": "s", "directories.expand_calls": "count",
    "graphs.expanded_nodes": "count",
    "graphs.to_formula_s": "s", "graphs.to_formula_calls": "count",
    "configuration.init_s": "s", "configuration.move_s": "s",
    "configuration.moves": "count", "configuration.legal_moves_s": "s",
    "configuration.legal_moves_calls": "count",
    "configuration.store_nodes": "count",
    "solver.close_s": "s", "solver.close_calls": "count",
    "solver.close_won": "count", "solver.close_won_ratio": "ratio",
    "solver.unify_calls": "count", "solver.bind_calls": "count",
    "terms.subst_calls": "count", "formulas.pretty_calls": "count",
    "prover.prove_s": "s", "prover.self_s": "s", "prover.search_nodes": "count",
    "scripts.parse_s": "s", "scripts.run_s": "s", "scripts.self_s": "s",
}
# span names whose self time (span minus child spans) is reported
SELF_TIMES = {"prover.self_s": "prover.prove", "scripts.self_s": "scripts.run"}


def _lookup(module_name, attr):
    owner = sys.modules[f"coli.{module_name}"]
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part)
    leaf = attr.split(".")[-1]
    return owner, leaf, getattr(owner, leaf)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list = []         # indices of spans not yet ended
        self._active: Counter = Counter()  # open spans and calls, by name
        self._restore: list = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._open.clear()
        self._active.clear()

    # wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name, calls, on_result):
        spans, counts = self.spans, self.counts
        opened, active = self._open, self._active
        outermost = name in OUTERMOST
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            nested = active[name] > 0
            if outermost and nested:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, opened[-1] if opened else -1, nested]
            opened.append(len(spans))
            spans.append(record)
            active[name] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                opened.pop()
                active[name] -= 1
                record[1], record[2] = start, end
            if calls:
                counts[calls] += 1
            if on_result:
                counts.update(on_result(result))
            return result

        return wrapper

    def _count_wrapper(self, fn, name, outermost):
        counts, active = self.counts, self._active

        def wrapper(*args, **kwargs):
            if outermost and active[name]:
                return fn(*args, **kwargs)
            counts[name] += 1
            if not outermost:
                return fn(*args, **kwargs)
            active[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[name] -= 1

        return wrapper

    # installation -----------------------------------------------------

    def install(self):
        """Wrap every listed function wherever a coli module imported it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "coli" or n.startswith("coli.")]
        targets = [(mod, attr, self._span_wrapper, (name, calls, on_result))
                   for mod, attr, name, calls, on_result in SPANS]
        targets += [(mod, attr, self._count_wrapper, (name, outermost))
                    for mod, attr, name, outermost in COUNTS]
        for mod, attr, make, params in targets:
            owner, leaf, original = _lookup(mod, attr)
            wrapper = make(original, *params)
            if isinstance(owner, type):  # a method: patch the class
                self._patch(owner, leaf, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer times and counts of everything recorded since reset."""
        inclusive: Counter = Counter()
        own: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, nested in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            if not nested:
                inclusive[name] += end - start
        for i, (name, start, end, _parent, _nested) in enumerate(self.spans):
            own[name] += end - start - child_time[i]
        out = {}
        for metric in LAYER_METRICS:
            if metric in SELF_TIMES:
                out[metric] = own[SELF_TIMES[metric]]
            elif metric.endswith("_s"):
                out[metric] = inclusive[metric[:-2]]
            elif metric == "solver.close_won_ratio":
                calls = self.counts["solver.close_calls"]
                out[metric] = self.counts["solver.close_won"] / calls if calls else 0.0
            else:
                out[metric] = self.counts[metric]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _nested in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
