"""Span tracing for the benchmark's traced run.

Only the traced run imports this.  ``Tracer.install`` replaces the
module-level names of the public functions listed in ``FUNCTIONS`` (in
every ``spinjoint`` module that binds them, so ``from .x import f`` copies
are covered too) and the two methods in ``METHODS`` with span wrappers.
Nothing under ``src/`` knows about tracing.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``op`` the benchmark op that was
running.  Spans are kept in memory and written out after the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import warnings
from collections import Counter
from time import perf_counter

# "<spinjoint submodule>.<function>", also the span name
FUNCTIONS = (
    "qubit.state_from_bloch",
    "povm.validate",
    "povm.outcome_probabilities",
    "povm.two_party_probabilities",
    "joint.general_joint_povm",
    "joint.optimal_joint_povm",
    "joint.admissibility_scan",
    "correlations.singlet",
    "correlations.joint_correlations",
    "correlations.born_correlations",
    "correlations.no_signalling_probe",
    "sampling.sample_indices",
    "sampling.sample_povm",
    "sampling.sample_two_party",
    "sampling.signalling_experiment",
    "uncertainty.evaluate_all",
    "scenarios.bb84_eve",
    "cli.main",
)

# span name -> (spinjoint submodule, class, method)
METHODS = {
    "joint.JointSpec": ("joint", "JointSpec", "__init__"),
    "sampling.uniforms": ("sampling", "SeededStream", "uniforms"),
}

# Spans recorded around the benchmark's own code, not a library function.
BENCH_SPANS = ("povm.json_roundtrip", "bench.check")

SPAN_NAMES = FUNCTIONS + tuple(METHODS) + BENCH_SPANS

COUNTS = (
    "sampling.uniforms.draws",
    "joint.admissibility_scan.rows",
    "povm.outcome_probabilities.clamped",
    "scenarios.bb84_eve.draws_per_trial",
    "cli.stdout_bytes",
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.draws = {}  # span index of a uniforms call -> draws
        self.trials = 0  # bb84_eve trials, for draws_per_trial
        self.op = -1
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, after=None):
        """Span wrapper around ``fn``; ``after(index, result)`` records
        counts for the finished span."""
        spans, stack = self.spans, self._stack

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
                spans[index] = (name, start, end, parent, self.op)
            if after is not None:
                after(index, result)
            return result

        return traced

    def install(self, extra=()):
        """Wrap every traced library name; ``extra`` holds
        ``(span name, module, attribute)`` for benchmark functions."""
        for mod in {name.split(".")[0] for name in (*FUNCTIONS, *METHODS)}:
            importlib.import_module(f"spinjoint.{mod}")
        modules = [
            m for name, m in sys.modules.items()
            if name == "spinjoint" or name.startswith("spinjoint.")
        ]
        for name in FUNCTIONS:
            mod, attr = name.split(".")
            original = getattr(sys.modules[f"spinjoint.{mod}"], attr)
            inner = original
            if name == "povm.outcome_probabilities":
                inner = self._clamp_counting(original)
            wrapper = self.wrap(name, inner, self._after(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for name, (mod, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[f"spinjoint.{mod}"], cls_name)
            self._patch(cls, attr, self.wrap(name, vars(cls)[attr], self._after(name)))
        for name, module, attr in extra:
            self._patch(module, attr, self.wrap(name, getattr(module, attr)))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _clamp_counting(self, fn):
        # The clamp RuntimeWarnings are counted here and not re-emitted.
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            self.counts["povm.outcome_probabilities.clamped"] += sum(
                "clamped" in str(w.message) for w in caught
            )
            return result

        return counted

    def _after(self, name):
        if name == "sampling.uniforms":
            def after(index, result):
                self.draws[index] = len(result)
        elif name == "joint.admissibility_scan":
            def after(index, result):
                self.counts["joint.admissibility_scan.rows"] += len(result[0])
        elif name == "scenarios.bb84_eve":
            def after(index, result):
                self.trials += result.n_trials
        else:
            after = None
        return after

    def rollup(self, wall_s, passes):
        """Per-layer metrics per pass: calls, busy_s (inclusive) and self_s
        (duration minus time covered by child spans), plus the counts,
        and the share of ``wall_s`` covered by top-level spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        top = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            t = totals[name]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child[i]
            if parent < 0:
                top += end - start
        out = {}
        for name, (calls, busy, self_s) in totals.items():
            out[f"{name}.calls"] = calls / passes
            out[f"{name}.busy_s"] = busy / passes
            out[f"{name}.self_s"] = self_s / passes
        bb84_draws = sum(
            n for i, n in self.draws.items() if self._under(i, "scenarios.bb84_eve")
        )
        counts = dict(self.counts)
        counts["sampling.uniforms.draws"] = sum(self.draws.values())
        for key in COUNTS:
            out[key] = counts.get(key, 0) / passes
        out["scenarios.bb84_eve.draws_per_trial"] = (
            bb84_draws / self.trials if self.trials else 0.0
        )
        return out, top / wall_s

    def _under(self, index, name):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
