"""Span recorder for the traced run, wrapped around flowclass from outside.

install() replaces each public function in TARGETS at every place a
flowclass module looks it up (spectral holds its own char_poly and rank,
flowsim its own mat_exp_array, the package root re-exports everything),
and wraps Matrix.__matmul__ and Matrix.__init__ on the class.  Each call
then records a span [name, start, end, parent span index, op id] in
memory; nothing is written until the run ends.  uninstall() puts the
original functions back, so untimed and traced passes run the same code.
"""

from __future__ import annotations

import functools
import importlib
import time

# span name -> (module under flowclass, attribute)
TARGETS = (
    ("numkit.matmul", "numkit", "Matrix.__matmul__"),
    ("numkit.Matrix", "numkit", "Matrix.__init__"),
    ("numkit.rank", "numkit", "rank"),
    ("numkit.char_poly", "numkit", "char_poly"),
    ("numkit.mat_exp_array", "numkit", "mat_exp_array"),
    ("spectral.eigenvalues", "spectral", "eigenvalues"),
    ("spectral.jordan_counts", "spectral", "jordan_counts"),
    ("spectral.spectrum_descriptor", "spectral", "spectrum_descriptor"),
    ("invariants.conjugacy_signature", "invariants", "conjugacy_signature"),
    ("invariants.decide_conjugate", "invariants", "decide_conjugate"),
    ("invariants.bounded_structure", "invariants", "bounded_structure"),
    ("invariants.rational_classes", "invariants", "rational_classes"),
    ("invariants.frequency_profile", "invariants", "frequency_profile"),
    ("invariants.recover_multipliers", "invariants", "recover_multipliers"),
    ("flowsim.orbit_sample", "flowsim", "orbit_sample"),
    ("flowsim.min_period", "flowsim", "min_period"),
    ("flowsim.bounded_probe", "flowsim", "bounded_probe"),
    ("flowsim.witness_sequence", "flowsim", "witness_sequence"),
    ("cli.main", "cli", "main"),
    ("cli.parse", "cli", "_load_document"),
    ("cli.emit", "cli", "emit_json"),
)
MODULES = ("", ".numkit", ".spectral", ".invariants", ".flowsim", ".cli")

# the per-layer metrics a traced run reports: span name + .calls, .s or .self_s
LAYER_METRICS = (
    "numkit.matmul.calls", "numkit.matmul.s", "numkit.Matrix.calls",
    "numkit.rank.calls", "numkit.rank.s",
    "numkit.char_poly.calls", "numkit.char_poly.s",
    "numkit.mat_exp_array.calls", "numkit.mat_exp_array.s",
    "spectral.spectrum_descriptor.s",
    "spectral.jordan_counts.calls", "spectral.jordan_counts.s",
    "spectral.jordan_counts.self_s",
    "spectral.eigenvalues.s", "spectral.eigenvalues.self_s",
    "invariants.conjugacy_signature.s", "invariants.decide_conjugate.s",
    "invariants.bounded_structure.s", "invariants.rational_classes.s",
    "invariants.frequency_profile.s", "invariants.recover_multipliers.s",
    "flowsim.orbit_sample.calls", "flowsim.orbit_sample.s",
    "flowsim.min_period.self_s", "flowsim.bounded_probe.s",
    "flowsim.witness_sequence.s", "flowsim.witness_sequence.self_s",
    "cli.main.s", "cli.main.self_s", "cli.parse.s", "cli.emit.s",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.op = 0
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, key, orig, new):
        setattr(owner, key, new)
        self._undo.append((owner, key, orig))

    def install(self) -> None:
        mods = [importlib.import_module("flowclass" + m) for m in MODULES]
        for name, home, attr in TARGETS:
            owner = importlib.import_module("flowclass." + home)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            new = self._wrap(name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)


def totals(spans) -> dict:
    """{span name: [calls, seconds, self seconds]}; self time is a span's
    duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for (name, start, end, _, _), child in zip(spans, covered):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child
    return out


def layer_metrics(spans) -> dict:
    """Every LAYER_METRICS entry from the spans of one pass; 0 where the
    workload never calls that function."""
    rows = totals(spans)
    out = {}
    for metric in LAYER_METRICS:
        name, kind = metric.rsplit(".", 1)
        calls, secs, self_secs = rows.get(name, (0, 0.0, 0.0))
        out[metric] = {"calls": calls, "s": secs, "self_s": self_secs}[kind]
    return out
