"""Hooks that time promptseg from outside: step and eval clocks, and spans.

The hooks replace functions of the program for the duration of a ``with``
block and put the originals back on exit; no file of the program changes.

* Clocks (always installed): the end time of every ``AdamW.step`` and
  ``sweep.save_study`` call, and the duration and sample count of every
  ``training.evaluate`` call.  They cost a clock read or two per optimizer
  step, evaluation or trial, against milliseconds of work, and give the
  end-to-end step, eval and trial figures.
* Spans (``spans=True``): every public function of every promptseg module,
  plus the encoder/decoder methods of ``Backbone``, ``Tensor.backward`` and
  the ``AdamW`` methods, record a span (name, start, end, parent span, run
  id) in memory.  The tensor ops themselves get no span: they run thousands
  of times per step, so a span each would dominate what it measures.  They
  are counted instead: every graph node (a ``Tensor`` built with parents) is
  charged to the innermost open span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass

import numpy as np

MODULES = ("tensor", "backbone", "prompts", "training", "dataio", "sweep",
           "runner", "checkpoint")
# modules whose bindings are rewritten too (they import names from MODULES)
BINDERS = MODULES + ("cli",)
# module-level functions that get no span: the tensor ops (see the module
# docstring), and the transformer building blocks, whose time belongs to the
# encoder, decoder or coupler that calls them
UNSPANNED_MODULES = ("tensor",)
UNSPANNED = ("backbone.transformer_block", "backbone.multi_head_attention")
# (module, class, method, span name)
METHODS = (
    ("tensor", "Tensor", "backward", "tensor.backward"),
    ("backbone", "Backbone", "encode_text", "backbone.encode_text"),
    ("backbone", "Backbone", "encode_image", "backbone.encode_image"),
    ("backbone", "Backbone", "decode", "backbone.decode"),
    ("backbone", "Backbone", "forward", "backbone.forward"),
    ("backbone", "Backbone", "frozen_checksum", "backbone.frozen_checksum"),
    ("training", "AdamW", "step", "training.adamw"),
    ("training", "AdamW", "zero_grad", "training.adamw.zero_grad"),
)
# the first WARMUP_STEPS optimizer steps of every training run are not timed
WARMUP_STEPS = 2


@dataclass
class StepTime:
    run: int          # index into Tracer.run_labels
    seconds: float


class Tracer:
    """Installs the hooks on enter and removes them on exit."""

    def __init__(self, spans: bool = False):
        self.spans = spans
        self.run = 0
        self.run_labels = ["setup"]
        # clocks
        self.steps: list[StepTime] = []        # timed (post-warm-up) steps
        self.step_count = 0                    # every optimizer step
        self.evals: list[tuple[int, int, float]] = []   # (run, samples, seconds)
        self.saves: list[float] = []           # end times of sweep.save_study
        self._last_step = None                 # (optimizer id, step, time)
        self._eval_since_step = False
        # spans, as parallel lists indexed by span id; span 0 is the root
        self.names: list[str] = ["<root>"]
        self.parents: list[int] = [-1]
        self.runs: list[int] = [0]
        self.starts: list[int] = [time.perf_counter_ns()]
        self.ends: list[int] = [0]
        self.nodes: list[int] = [0]
        self.cur = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- run labels --------------------------------------------------------

    def begin_run(self, label: str) -> None:
        """Spans and clock readings from here on carry ``label`` as run id."""
        self.run_labels.append(label)
        self.run = len(self.run_labels) - 1

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        mods = {m: importlib.import_module(f"promptseg.{m}") for m in BINDERS}
        training, tensor, sweep = mods["training"], mods["tensor"], mods["sweep"]
        self._patch_function(mods, training.evaluate,
                             self._eval_clock(training.evaluate))
        self._patch_function(mods, sweep.save_study,
                             self._end_clock(sweep.save_study, self.saves))
        self._patch_attr(training.AdamW, "step", self._step_clock(training.AdamW.step))
        if self.spans:
            for short in MODULES:
                if short in UNSPANNED_MODULES:
                    continue
                mod = mods[short]
                for name, fn in list(vars(mod).items()):
                    if (name.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != mod.__name__
                            or f"{short}.{name}" in UNSPANNED):
                        continue
                    self._patch_function(mods, fn, self._span(f"{short}.{name}", fn))
            for short, cls_name, meth, span_name in METHODS:
                cls = getattr(mods[short], cls_name)
                self._patch_attr(cls, meth, self._span(span_name, getattr(cls, meth)))
            self._patch_attr(tensor.Tensor, "__init__",
                             self._node_counter(tensor.Tensor.__init__))

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self.ends[0] = time.perf_counter_ns()

    def _patch_attr(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, mods: dict, original, new) -> None:
        """Rebind ``original`` to ``new`` under every name a module gives it
        (``runner`` calls ``evaluate`` through its own import, for one)."""
        for mod in mods.values():
            for name, val in list(vars(mod).items()):
                if val is original:
                    self._patch_attr(mod, name, new)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        t = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(t.names)
            t.names.append(name)
            t.parents.append(t.cur)
            t.runs.append(t.run)
            t.nodes.append(0)
            t.ends.append(0)
            prev, t.cur = t.cur, sid
            t.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t.ends[sid] = clock()
                t.cur = prev

        return wrapper

    def _node_counter(self, init):
        t = self

        @functools.wraps(init)
        def wrapper(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            if tensor._parents:
                t.nodes[t.cur] += 1

        return wrapper

    def _step_clock(self, step):
        t = self

        @functools.wraps(step)
        def wrapper(opt, *args, **kwargs):
            out = step(opt, *args, **kwargs)
            now = time.perf_counter()
            t.step_count += 1
            last = t._last_step
            if (last is not None and last[0] == id(opt) and last[1] == opt.t - 1
                    and opt.t > WARMUP_STEPS and not t._eval_since_step):
                t.steps.append(StepTime(t.run, now - last[2]))
            t._last_step = (id(opt), opt.t, now)
            t._eval_since_step = False
            return out

        return wrapper

    def _end_clock(self, fn, sink: list):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            sink.append(time.perf_counter())
            return out

        return wrapper

    def _eval_clock(self, evaluate):
        t = self

        @functools.wraps(evaluate)
        def wrapper(model, state, samples, *args, **kwargs):
            t0 = time.perf_counter()
            out = evaluate(model, state, samples, *args, **kwargs)
            t.evals.append((t.run, len(samples), time.perf_counter() - t0))
            t._eval_since_step = True
            return out

        return wrapper

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """All spans as JSON: one row per span, names and run ids indexed."""
        name_ids: dict[str, int] = {}
        rows = []
        for sid, name in enumerate(self.names):
            nid = name_ids.setdefault(name, len(name_ids))
            rows.append([sid, self.parents[sid], nid, self.runs[sid],
                         self.starts[sid], self.ends[sid], self.nodes[sid]])
        doc = {
            "fields": ["id", "parent", "name", "run", "start_ns", "end_ns", "nodes"],
            "names": list(name_ids),
            "runs": self.run_labels,
            "spans": rows,
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))

    def operations(self) -> int:
        """Optimizer steps plus evaluated samples seen by the clocks."""
        return self.step_count + sum(n for _, n, _ in self.evals)


class SpanTable:
    """Derived per-span quantities: duration, self time, inclusive node count,
    phase (``step``, ``eval`` or ``other``) and the enclosing run_training."""

    def __init__(self, tr: Tracer):
        n = len(tr.names)
        self.names = tr.names
        self.runs = tr.runs
        self.labels = tr.run_labels
        dur = np.array(tr.ends, dtype=np.int64) - np.array(tr.starts, dtype=np.int64)
        child = np.zeros(n, dtype=np.int64)
        nodes = np.array(tr.nodes, dtype=np.int64)
        for sid in range(n - 1, 0, -1):
            p = tr.parents[sid]
            child[p] += dur[sid]
            nodes[p] += nodes[sid]
        self.ms = dur / 1e6
        self.self_ms = (dur - child) / 1e6
        self.incl_nodes = nodes
        self.excl_nodes = np.array(tr.nodes, dtype=np.int64)
        self.by_name: dict[str, list[int]] = {}
        for sid, name in enumerate(tr.names):
            self.by_name.setdefault(name, []).append(sid)
        self.phase = ["other"] * n
        self.in_run_training = [False] * n
        for sid in range(1, n):
            p = tr.parents[sid]
            name = tr.names[sid]
            if name == "training.evaluate":
                self.phase[sid] = "eval"
            elif name == "training.train":
                self.phase[sid] = "step"
            else:
                self.phase[sid] = self.phase[p]
            self.in_run_training[sid] = (self.in_run_training[p]
                                         or tr.names[p] == "runner.run_training")

    def select(self, name: str, phase: str | None = None, label: str | None = None):
        return [i for i in self.by_name.get(name, [])
                if (phase is None or self.phase[i] == phase)
                and (label is None or self.labels[self.runs[i]] == label)]
