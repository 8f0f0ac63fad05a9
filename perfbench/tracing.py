"""Spans and work counters for the traced run (`--trace 1`).

Spans are recorded only from the benchmark's side: `instrument` rebinds a
fixed list of public boxworld functions, in every boxworld module that
imported them, to wrappers that record (name, start, end, parent).  That
covers the calls a workload makes and the cross-module calls nested layers
make, e.g. `exactlp.solve_equality_feasibility` as seen by `locality` and
`polytope`.  Spans stay in memory; the run writes them out when it ends.

A layer's self time is its span time minus the time of the spans nested
directly inside it.  Counters are exact counts of the work the program
does, taken at the same boundaries and inside two private helpers
(HELPERS), so they repeat identically from run to run.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager


def _sample_runs(args, kwargs, result):
    return args[3] if len(args) > 3 else kwargs["n_runs"]


def _lp_matrix(args, kwargs):
    return args[0] if args else kwargs["A"]


def _lp_cells(args, kwargs, result):
    a = _lp_matrix(args, kwargs)
    return len(a) * (len(a[0]) if a else 0)


def _lp_columns(args, kwargs, result):
    a = _lp_matrix(args, kwargs)
    return len(a[0]) if a else 0


# (module, attribute, counters): each counter is (name, enclosing span or
# None, count(args, kwargs, result) -> int) and counts only calls made
# directly inside the enclosing span, when one is named.
TARGETS = (
    ("boxworld.boxes", "check_no_signaling", ()),
    ("boxworld.circuits", "synthesize_nand", (("circuits.gates", None, lambda a, k, r: len(r.gates)),)),
    ("boxworld.compiler", "affine_outcome_counts", ()),
    ("boxworld.compiler", "cc_values", ()),
    ("boxworld.compiler", "compile_circuit", ()),
    ("boxworld.compiler", "induced_box_fast", ()),
    ("boxworld.compiler", "solve_cc", ()),
    ("boxworld.compiler", "compiled_distribution", ()),
    ("boxworld.wiring", "execute_sample", (("wiring.sample_runs", None, _sample_runs),)),
    ("boxworld.wiring", "execute_exact", ()),
    ("boxworld.wiring", "induced_box", ()),
    ("boxworld.wiring", "validate_protocol", ()),
    ("boxworld.locality", "is_local", ()),
    (
        "boxworld.exactlp",
        "solve_equality_feasibility",
        (("exactlp.lp_cells", None, _lp_cells), ("locality.strategies", "locality.is_local", _lp_columns)),
    ),
    ("boxworld.exactlp", "exact_rank", ()),
    ("boxworld.polytope", "enumerate_vertices", (("polytope.vertices", None, lambda a, k, r: len(r)),)),
    ("boxworld.polytope", "HRepresentation.box_from_point", ()),
    ("boxworld.polytope", "is_vertex", ()),
    ("boxworld.polytope", "classify_vertex", ()),
    ("boxworld.polytope", "decompose", ()),
    (
        "boxworld.cluster",
        "simulation_search",
        (("cluster.strategies_tested", None, lambda a, k, r: r.strategies_tested),),
    ),
    ("boxworld.cli", "main", ()),
)

# Work counted inside private helpers, which get no span of their own:
# (module, helper, counter name, enclosing span, count(result) -> int).
# The sampler calls _alpha_weights once per box output it draws; the
# affine core builds its row table, one row per (ownership map, joint
# input), with _sweep_rows.  A change that removes or renames a helper
# must update this list; until then its counter reads 0 and a warning is
# printed.
HELPERS = (
    ("boxworld.wiring", "_alpha_weights", "wiring.box_draws", "wiring.execute_sample", lambda r: 1),
    ("boxworld.compiler", "_sweep_rows", "compiler.affine_rows", "compiler.affine_outcome_counts", len),
)


class Tracer:
    """In-memory span list plus exact counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    def _add(self, counter, value):
        self.counts[counter] = self.counts.get(counter, 0) + value

    def _enclosing(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name, fn, counters=()):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            for counter, within, count in counters:
                if within is None or self._enclosing() == within:
                    self._add(counter, count(args, kwargs, result))
            return result

        return traced

    def wrap_helper(self, fn, counter, within, count):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._enclosing() == within:
                self._add(counter, count(result))
            return result

        return counted

    def absorb(self, spans, counts):
        """Append another process's spans and counters (cli children)."""
        offset = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1])
        for name, value in counts.items():
            self.counts[name] = self.counts.get(name, 0) + value


def span_name(module_name, attr):
    return f"{module_name.split('.')[-1]}.{attr.split('.')[-1]}"


def _rebind_everywhere(orig, replacement, attr, undo):
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "boxworld" or mod_name.startswith("boxworld.")):
            continue
        if getattr(mod, attr, None) is orig:
            setattr(mod, attr, replacement)
            undo.append((mod, attr, orig))


@contextmanager
def instrument(tracer: Tracer):
    """Rebind every target to its traced wrapper; restore on exit."""
    undo = []
    try:
        for module_name, attr, counters in TARGETS:
            module = importlib.import_module(module_name)
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, tracer.wrap(name, orig, counters))
                undo.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            _rebind_everywhere(orig, tracer.wrap(name, orig, counters), attr, undo)
        for module_name, attr, counter, within, count in HELPERS:
            helper = getattr(importlib.import_module(module_name), attr, None)
            if helper is None:
                print(f"warning: {module_name}.{attr} not found; {counter} reads 0", file=sys.stderr)
                continue
            _rebind_everywhere(helper, tracer.wrap_helper(helper, counter, within, count), attr, undo)
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def summarize(spans):
    """{span name: [self seconds, calls]} over a span list."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, [0.0, 0])
        entry[0] += (end - start) - child_time[idx]
        entry[1] += 1
    return out


# Per-layer metrics of the traced run, each with the end-to-end metric and
# workload it should move.  (name, unit, better, moves)
LAYER_METRICS = (
    ("circuits.synthesize_nand.self_s", "s", "lower", "ops_per_s on sweep"),
    ("circuits.gates", "count", "lower", "ops_per_s on sweep"),
    ("compiler.affine_outcome_counts.self_s", "s", "lower", "ops_per_s on sweep"),
    ("compiler.affine_rows", "count", "lower", "ops_per_s on sweep"),
    ("compiler.cc_values.self_s", "s", "lower", "ops_per_s on sweep"),
    ("compiler.compile_circuit.self_s", "s", "lower", "ops_per_s on sweep; call_p50_ms on cli"),
    ("compiler.induced_box_fast.self_s", "s", "lower", "ops_per_s on sweep; call_p50_ms on cli"),
    ("compiler.solve_cc.self_s", "s", "lower", "ops_per_s on sweep; call_p50_ms on cli"),
    ("compiler.compiled_distribution.self_s", "s", "lower", "wall_s on sample"),
    ("wiring.execute_sample.self_s", "s", "lower", "ops_per_s on sample"),
    ("wiring.sample_runs", "count", "higher", "ops_per_s on sample"),
    ("wiring.box_draws", "count", "lower", "ops_per_s on sample"),
    ("wiring.execute_exact.self_s", "s", "lower", "wall_s on sample; call_p90_ms on cli"),
    ("wiring.induced_box.self_s", "s", "lower", "wall_s on sample; call_p90_ms on cli"),
    ("wiring.validate_protocol.self_s", "s", "lower", "wall_s on sample; call_p90_ms on cli"),
    ("locality.is_local.self_s", "s", "lower", "wall_s on census"),
    ("locality.strategies", "count", "lower", "wall_s on census"),
    ("exactlp.solve_equality_feasibility.self_s", "s", "lower", "wall_s on census"),
    ("exactlp.solve_equality_feasibility.calls", "count", "lower", "wall_s on census"),
    ("exactlp.lp_cells", "count", "lower", "wall_s on census"),
    ("exactlp.exact_rank.self_s", "s", "lower", "wall_s on census"),
    ("exactlp.exact_rank.calls", "count", "lower", "wall_s on census"),
    ("polytope.enumerate_vertices.self_s", "s", "lower", "wall_s on census"),
    ("polytope.box_from_point.self_s", "s", "lower", "wall_s on census"),
    ("polytope.is_vertex.self_s", "s", "lower", "wall_s on census"),
    ("polytope.vertices", "count", "higher", "wall_s on census"),
    ("polytope.classify_vertex.self_s", "s", "lower", "wall_s on census"),
    ("polytope.decompose.self_s", "s", "lower", "wall_s on census"),
    ("boxes.check_no_signaling.self_s", "s", "lower", "wall_s on census"),
    ("boxes.check_no_signaling.calls", "count", "lower", "wall_s on census"),
    ("cluster.simulation_search.self_s", "s", "lower", "call_p90_ms and wall_s on cli"),
    ("cluster.strategies_tested", "count", "higher", "call_p90_ms and wall_s on cli"),
    ("cli.main.self_s", "s", "lower", "call_p50_ms on cli"),
    ("cli.startup_ms", "ms", "lower", "call_p50_ms on cli"),
)
# The cli workload's calls, by subcommand: cli.<subcommand>.p50_ms comes
# from its untraced pass.
CLI_SUBCOMMANDS = (
    "box_make",
    "box_check",
    "box_chsh",
    "box_local",
    "circuit_synth",
    "compile",
    "verify",
    "cc",
    "simulate_sample",
    "simulate_exact",
    "polytope_vertices",
    "polytope_classify",
    "polytope_decompose",
    "cluster_constraints",
    "cluster_ghz",
    "cluster_search",
    "cluster_search_inverted",
)
LAYER_METRICS += tuple((f"cli.{kind}.p50_ms", "ms", "lower", "call_p50_ms on cli") for kind in CLI_SUBCOMMANDS)
LAYER_METRICS += (("trace_overhead_frac", "ratio", "lower", "none: traced over untraced pass time, minus 1"),)


def layer_values(summary_per_pass, counts):
    """Per-layer metric values from per-pass span summaries and one pass's
    exact counters: self times are medians over the traced passes."""
    import statistics

    values = {}
    for name, unit, _, _ in LAYER_METRICS:
        if name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            values[name] = statistics.median(s.get(span, [0.0, 0])[0] for s in summary_per_pass)
        elif name.endswith(".calls"):
            span = name[: -len(".calls")]
            values[name] = summary_per_pass[0].get(span, [0.0, 0])[1]
        elif unit == "count":
            values[name] = counts.get(name, 0)
    return values
