"""The traced run: spans and counts at lict's module boundaries, from outside.

Each public function is wrapped in the namespace where its caller looks it
up (``lict.licsat.build_tableau``, ``lict.cli.check_spec``, ...), so the
program itself is unchanged.  Spans (layer, start, end, parent) stay in
memory; counts are taken after the operation ends, from the values the
wrapped calls returned, so counting adds nothing to any span.  A layer's
self time is its spans' duration minus the part covered by child spans.

The per-layer metrics are named ``<module>.<what>``: ``*_ref`` are self
times in reference units per pass, the rest are counts per pass.
"""

from __future__ import annotations

import time
from dataclasses import fields, is_dataclass

# (module, attribute, layer or None for count only, counter kind or None);
# ``_count`` turns each counter kind into COUNT_METRICS.
WRAPS = (
    ("cli", "parse_run", "parsing.parse", "chars"),
    ("cli", "parse_formula", "parsing.parse", "chars"),
    ("cli", "parse_dr", "parsing.parse", "chars"),
    ("cli", "pretty_license", "licenses.print", None),
    ("runs", "pretty_license", "licenses.print", None),
    ("formulas", "pretty_license", "licenses.print", None),
    ("runs", "padded_nfa", "automata.nfa", "nfa_states"),
    ("licsat", "padded_nfa", "automata.nfa", "nfa_states"),
    ("ltl", "padded_nfa", "automata.nfa", "nfa_states"),
    ("licsat", "reachable_subsets", "automata.subsets", "subsets"),
    ("ltl", "reachable_subsets", "automata.subsets", "subsets"),
    ("cli", "compute_permissions", "runs.permissions", "timeline_steps"),
    ("formulas", "compute_permissions", "runs.permissions", "timeline_steps"),
    ("ltl", "compute_permissions", "runs.permissions", "timeline_steps"),
    ("cli", "check_spec", "formulas.check", None),
    ("cli", "evaluate", "formulas.check", "evaluate_calls"),
    ("formulas", "evaluate", None, "evaluate_calls"),
    ("cli", "encode_run", "formulas.encode", "encoding_nodes"),
    ("cli", "pretty_formula", "formulas.print", None),
    ("licsat", "translate", "ltl.translate", "formula_nodes"),
    ("cli", "translate", "ltl.translate", "formula_nodes"),
    ("licsat", "to_nnf", "tableau.nnf", None),
    ("licsat", "build_tableau", "tableau.expand", "tableau"),
    ("licsat", "accepting_lasso", "tableau.lasso", None),
    ("cli", "lic_sat", "licsat.product", None),
    ("cli", "lic_valid", "licsat.product", None),
    ("licsat", "lic_sat", "licsat.product", None),
    ("licsat", "evaluate", "licsat.reverify", "evaluate_calls"),
    ("licsat", "compute_permissions", "licsat.reverify", "timeline_steps"),
    ("cli", "pretty_run", None, "witness_steps"),
    ("cli", "compile_dr", "digitalrights.compile", "license_nodes"),
)

TIME_LAYERS = (
    "parsing.parse",
    "licenses.print",
    "automata.nfa",
    "automata.subsets",
    "runs.permissions",
    "formulas.check",
    "formulas.encode",
    "formulas.print",
    "ltl.translate",
    "tableau.nnf",
    "tableau.expand",
    "tableau.lasso",
    "licsat.product",
    "licsat.reverify",
    "digitalrights.compile",
    "cli.self",
)

COUNT_METRICS = (
    "parsing.chars",
    "automata.nfa_states",
    "automata.subsets",
    "runs.timeline_steps",
    "formulas.evaluate_calls",
    "formulas.encoding_nodes",
    "ltl.formula_nodes",
    "tableau.states",
    "tableau.edges",
    "tableau.accept_sets",
    "licsat.witness_steps",
    "digitalrights.license_nodes",
)


def metric_names() -> list[str]:
    """Every per-layer metric, as BENCHMARK.json lists them."""
    times = [f"{layer}_ref" for layer in TIME_LAYERS]
    return times + list(COUNT_METRICS)


def tree_nodes(root) -> int:
    """Nodes of a lict AST (formulas, target formulas, licenses), iteratively."""
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        count += 1
        if is_dataclass(node):
            for f in fields(node):
                if f.name in ("operand", "left", "right", "body"):
                    stack.append(getattr(node, f.name))
    return count


def _count(kind: str, args, result, counts: dict, seen_nfas: dict) -> None:
    if kind == "chars":
        counts["parsing.chars"] += len(args[0])
    elif kind == "nfa_states":
        if id(result) not in seen_nfas:
            seen_nfas[id(result)] = result
            counts["automata.nfa_states"] += len(result.states)
    elif kind == "subsets":
        counts["automata.subsets"] += len(result)
    elif kind == "timeline_steps":
        counts["runs.timeline_steps"] += result.prefix_len + result.loop_len
    elif kind == "evaluate_calls":
        counts["formulas.evaluate_calls"] += 1
    elif kind == "encoding_nodes":
        counts["formulas.encoding_nodes"] += tree_nodes(result)
    elif kind == "formula_nodes":
        counts["ltl.formula_nodes"] += tree_nodes(result)
    elif kind == "tableau":
        counts["tableau.states"] += len(result.old_sets)
        counts["tableau.edges"] += sum(len(targets) for targets in result.edges.values())
        counts["tableau.accept_sets"] += len(result.accept_sets)
    elif kind == "witness_steps":
        counts["licsat.witness_steps"] += args[0].horizon + 1
    elif kind == "license_nodes":
        counts["digitalrights.license_nodes"] += tree_nodes(result)


class Tracer:
    """Installs the wrappers; collects each operation's spans and counts.

    Parents index into the operation's own spans; ``kept`` holds the spans
    of the whole run until ``write`` stores them once, at the end.
    """

    def __init__(self):
        import importlib

        self._modules = {m: importlib.import_module(f"lict.{m}") for m, *_ in WRAPS}
        self._saved = []
        self.spans: list = []  # [layer, start, end, parent index]
        self._stack: list[int] = []
        self._returned: list = []  # (counter kind, args, result), read after the op
        self._seen_nfas: dict = {}
        self.kept: list = []  # every span of the run: (operation, layer, start, end, parent)
        self._operations = 0

    def install(self) -> None:
        for module_name, attr, layer, counter in WRAPS:
            module = self._modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, layer, counter):
        spans, stack, returned = self.spans, self._stack, self._returned
        clock = time.perf_counter

        if layer is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                returned.append((counter, args, result))
                return result

            return counted

        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append([layer, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if counter is not None:
                returned.append((counter, args, result))
            return result

        return spanned

    def write(self, path) -> None:
        import json

        with open(path, "w", encoding="ascii") as handle:
            json.dump({"fields": ["operation", "layer", "start", "end", "parent"], "spans": self.kept}, handle)

    def call(self, fn, *args):
        """Run ``fn`` as the operation's root span, attributed to cli.self."""
        return self._wrap(fn, "cli.self", None)(*args)

    def collect(self) -> tuple[dict, dict]:
        """(self seconds per layer, counts) of the operation; resets."""
        self_time = {layer: 0.0 for layer in TIME_LAYERS}
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (layer, start, end, _), covered in zip(self.spans, child_time):
            self_time[layer] += (end - start) - covered
        counts = {name: 0 for name in COUNT_METRICS}
        for kind, args, result in self._returned:
            _count(kind, args, result, counts, self._seen_nfas)
        self.kept.extend((self._operations, *span) for span in self.spans)
        self._operations += 1
        self.spans.clear()
        self._returned.clear()
        return self_time, counts
