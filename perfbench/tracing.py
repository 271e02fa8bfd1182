"""Spans around fedsim's public functions, recorded from outside the package.

Each function is wrapped where its callers look it up: fedsim.federation
imports evaluate_model, run_eliminator, detection_score, perturb_loss and
partition by name, so those are patched on fedsim.federation; fedsim.cli
imports run_experiment, synthesize and load_idx by name; nn functions are
looked up on fedsim.nn by every caller, nn's own callers included. Patches
are undone when the `installed` block ends, so nothing in fedsim changes
outside a traced invocation.

Spans are held in memory as (name, start, end, parent index) and turned
into per-function counts, inclusive time and self time (time not covered by
a wrapped child) when the invocation is over.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
from time import perf_counter

# Layer metric prefix -> (module whose attribute callers use, attribute).
CALL_SITES = {
    "nn.forward": ("fedsim.nn", "forward"),
    "nn.backward": ("fedsim.nn", "backward"),
    "nn.sgd_step": ("fedsim.nn", "sgd_step"),
    "nn.softmax_cross_entropy": ("fedsim.nn", "softmax_cross_entropy"),
    "federation.run_experiment": ("fedsim.cli", "run_experiment"),
    "federation.init_state": ("fedsim.federation", "init_state"),
    "federation.global_round": ("fedsim.federation", "global_round"),
    "federation.local_train": ("fedsim.federation", "local_train"),
    "federation.fed_avg": ("fedsim.federation", "fed_avg"),
    "privacy.perturb_loss": ("fedsim.federation", "perturb_loss"),
    "defense.run_eliminator": ("fedsim.federation", "run_eliminator"),
    "defense.detection_score": ("fedsim.federation", "detection_score"),
    "metrics.evaluate_model": ("fedsim.federation", "evaluate_model"),
    "data.synthesize": ("fedsim.cli", "synthesize"),
    "data.load_idx": ("fedsim.cli", "load_idx"),
    "data.partition": ("fedsim.federation", "partition"),
    "cli.parse_config": ("fedsim.cli", "parse_config"),
    "cli.build_datasets": ("fedsim.cli", "build_datasets"),
    "cli.write_reports": ("fedsim.cli", "write_reports"),
}
# The untraced runs wrap only these two, to time set-up.
SETUP_SITES = ("cli.parse_config", "cli.build_datasets")
NN_FUNCTIONS = ("nn.forward", "nn.backward", "nn.sgd_step", "nn.softmax_cross_entropy")
FLOP_FUNCTIONS = ("nn.forward", "nn.backward", "nn.sgd_step")
# Figures that depend only on the inputs, so they must repeat exactly for one seed.
EXACT_FIGURES = (
    "nn.gflop_computed", "defense.eliminated_share",
    "federation.wasted_train_share", "cli.bytes_written",
)


def is_count(name: str) -> bool:
    return name.endswith(".calls") or name in EXACT_FIGURES


def matmul_flop(name: str, dims, rows: int) -> int:
    """Floating-point operations of an nn function's matrix products over `rows` input rows.

    A multiply-add counts as 2. For sgd_step, `rows` is the number of calls
    and each call updates every parameter once. Elementwise work (bias,
    ReLU, softmax) is not counted, so the figure is computed from shapes,
    not measured.
    """
    p = [a * b for a, b in zip(dims[:-1], dims[1:])]
    if name == "nn.forward":
        return 2 * rows * sum(p)
    if name == "nn.backward":
        # forward pass, weight gradients, and deltas for every layer but the first
        return 2 * rows * (2 * sum(p) + sum(p[1:]))
    return 2 * rows * (sum(p) + sum(dims[1:]))  # nn.sgd_step


class Tracer:
    """Spans and counters for one invocation."""

    def __init__(self, sites=CALL_SITES):
        self.sites = tuple(sites)
        self.spans = []
        self._stack = []
        # One config trains one architecture, so every model an invocation
        # sees has the dims of the first; rows are summed per function and
        # multiplied out once, which keeps the per-call cost low.
        self.dims = None
        self.rows = dict.fromkeys(FLOP_FUNCTIONS, 0)
        self.reports_judged = 0
        self.eliminated = 0

    def _on_return(self, name, args, result) -> None:
        if name == "defense.run_eliminator":
            self.reports_judged += len(args[0])
            self.eliminated += len(result.eliminated)
            return
        if self.dims is None:
            self.dims = args[0].dims
        self.rows[name] += 1 if name == "nn.sgd_step" else len(args[1])

    @property
    def flop(self) -> int:
        if self.dims is None:
            return 0
        return sum(matmul_flop(name, self.dims, rows) for name, rows in self.rows.items())

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counted = name in FLOP_FUNCTIONS or name == "defense.run_eliminator"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counted:
                self._on_return(name, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every site for the duration of the block, then restore it."""
        saved = []
        try:
            for name in self.sites:
                module_name, attr = CALL_SITES[name]
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> dict:
        """name -> [calls, inclusive seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0, 0.0] for name in self.sites}
        for (name, start, end, _), covered in zip(self.spans, child):
            t = out[name]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - covered
        return out

    def durations(self, name: str) -> list:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write_spans(self, f, invocation: int) -> None:
        for name, start, end, parent in self.spans:
            f.write(json.dumps({"invocation": invocation, "name": name,
                                "start": start, "end": end, "parent": parent}) + "\n")


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict:
    """Per-layer figures of one traced invocation, as {metric: value}."""
    t = tracer.totals()
    m = {}
    for name, (calls, incl, self_s) in t.items():
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
        m[f"{name}.s"] = incl
    m["data.ingest.s"] = t["data.synthesize"][1] + t["data.load_idx"][1]
    nn_self = sum(t[name][2] for name in NN_FUNCTIONS)
    m["nn.gflop_computed"] = tracer.flop / 1e9
    m["nn.gflops_achieved"] = m["nn.gflop_computed"] / nn_self if nn_self else 0.0
    # Every workload runs at least two rounds per invocation.
    deciles = statistics.quantiles(tracer.durations("federation.global_round"), n=10, method="inclusive")
    m["federation.round_p50_ms"], m["federation.round_p90_ms"] = 1e3 * deciles[4], 1e3 * deciles[8]
    trained = t["federation.local_train"][0]
    m["federation.wasted_train_share"] = tracer.eliminated / trained if trained else 0.0
    m["defense.eliminated_share"] = (
        tracer.eliminated / tracer.reports_judged if tracer.reports_judged else 0.0
    )
    m["cli.bytes_written"] = bytes_written
    return m
