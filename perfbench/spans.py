"""Spans at the boundaries between recseq modules, recorded from outside.

The tracer replaces module attributes at run time (for example the name
``_unroll`` inside ``recseq.models``, which is how the models layer calls
into the cells layer) with wrappers that record a span per call, and
puts the originals back afterwards. No source file is edited. A target
that no longer exists is reported as missing, and the metrics that
depend on it read 0.

A span is ``(id, parent id, operation id, name, start, end, work)``.
The operation id is the id of the outermost span, so every span of one
call the benchmark makes into the library shares it. ``work`` is a
count taken at the call (layer-steps of an unroll, pairs scored, ...).
Spans stay in memory until :meth:`Tracer.write` saves them.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict


def _one(args, kwargs, result):
    return 1


def _unroll_steps(args, kwargs, result):
    # _unroll(cells, xs, ...) and _unroll_backward(cells, caches, ...)
    return len(args[0]) * len(args[1])


def _grid_pairs(args, kwargs, result):
    # score_pairs(m, image_feats, captions)
    return len(args[1]) * len(args[2])


def _returned(args, kwargs, result):
    return len(result)


# (module, attribute, span name, work). Several bindings of one function
# (one per calling module) share a span name.
TARGETS = (
    ("recseq.data", "load_task_dir", "data.load", _one),
    ("recseq.data", "SequenceBatch.from_examples", "data.batch", _one),
    ("recseq.models", "phi_forward", "features.forward", _one),
    ("recseq.features", "phi_forward", "features.forward", _one),
    ("recseq.models", "phi_backward", "features.backward", _one),
    ("recseq.models", "_unroll", "cells.forward", _unroll_steps),
    ("recseq.models", "_unroll_backward", "cells.backward", _unroll_steps),
    ("recseq.cells", "sigmoid", "tensor_ops.sigmoid", _one),
    ("recseq.cells", "dropout_mask", "tensor_ops.dropout_mask", _one),
    ("recseq.models", "log_softmax", "tensor_ops.log_softmax", _one),
    ("recseq.models", "softmax", "tensor_ops.softmax", _one),
    ("recseq.decoding", "softmax", "tensor_ops.softmax", _one),
    ("recseq.training", "sequence_loss_and_grads", "models.loss", _one),
    ("recseq.training", "fit", "training.fit", _one),
    ("recseq.training", "sequence_nll", "training.nll", _one),
    ("recseq.decoding", "make_stepper", "models.stepper", _one),
    ("recseq.decoding", "greedy_decode", "decoding.greedy", _one),
    ("recseq.decoding", "beam_search", "decoding.beam", _returned),
    ("recseq.decoding", "sample_decode", "decoding.sample", _one),
    ("recseq.evaluation", "caption_log_likelihood", "models.score", _one),
    ("recseq.evaluation", "classify_sequence", "models.classify", _one),
    ("recseq.evaluation", "score_pairs", "evaluation.score_pairs", _grid_pairs),
    ("recseq.evaluation", "classification_accuracy", "evaluation.classify", _one),
)

# The step closure returned by make_stepper is wrapped as "models.step";
# Hypothesis construction inside beam search is counted, not timed.
HYPOTHESIS = ("recseq.decoding", "Hypothesis")

# Which per-layer metrics read which span names, for reporting missing hooks.
DEPENDS = {
    "data.load": ("data.load_s",),
    "data.batch": ("data.batch_s", "data.batches", "training.updates"),
    "features.forward": ("features.forward_s", "features.forward_calls"),
    "features.backward": ("features.backward_s", "features.backward_calls"),
    "cells.forward": ("cells.forward_s", "cells.forward_steps", "cells.unroll_calls", "cells.steps_per_s"),
    "cells.backward": ("cells.backward_s", "cells.backward_steps", "cells.steps_per_s"),
    "tensor_ops.sigmoid": ("tensor_ops.sigmoid_s", "tensor_ops.sigmoid_calls"),
    "tensor_ops.dropout_mask": ("tensor_ops.dropout_mask_s", "tensor_ops.dropout_mask_calls"),
    "tensor_ops.log_softmax": ("tensor_ops.log_softmax_s", "tensor_ops.log_softmax_calls"),
    "tensor_ops.softmax": ("tensor_ops.softmax_s", "tensor_ops.softmax_calls"),
    "models.loss": ("models.loss_s", "models.loss_calls", "models.self_s"),
    "training.fit": ("training.update_s", "training.updates"),
    "models.stepper": ("models.stepper_s", "models.step_s", "models.step_calls"),
    "decoding.greedy": ("decoding.greedy_s", "decoding.self_s"),
    "decoding.beam": ("decoding.beam_s", "decoding.self_s", "decoding.beam_candidates", "decoding.beam_keep_ratio"),
    "decoding.sample": ("decoding.sample_s", "decoding.self_s"),
    "models.score": ("models.self_s",),
    "models.classify": ("evaluation.clips", "models.self_s"),
    "evaluation.score_pairs": ("evaluation.score_pairs_s", "evaluation.pairs", "evaluation.self_s"),
    "evaluation.classify": ("evaluation.classify_s", "evaluation.clips", "evaluation.self_s"),
    "Hypothesis": ("decoding.beam_candidates", "decoding.beam_keep_ratio"),
}

# name -> unit, in the order they are reported.
LAYER_METRICS = {
    "data.load_s": "s", "data.batch_s": "s", "data.batches": "count",
    "features.forward_s": "s", "features.forward_calls": "count",
    "features.backward_s": "s", "features.backward_calls": "count",
    "cells.forward_s": "s", "cells.backward_s": "s",
    "cells.forward_steps": "count", "cells.backward_steps": "count",
    "cells.unroll_calls": "count", "cells.steps_per_s": "steps/s",
    "tensor_ops.sigmoid_s": "s", "tensor_ops.sigmoid_calls": "count",
    "tensor_ops.log_softmax_s": "s", "tensor_ops.log_softmax_calls": "count",
    "tensor_ops.softmax_s": "s", "tensor_ops.softmax_calls": "count",
    "tensor_ops.dropout_mask_s": "s", "tensor_ops.dropout_mask_calls": "count",
    "models.loss_s": "s", "models.loss_calls": "count", "models.self_s": "s",
    "models.step_s": "s", "models.step_calls": "count", "models.stepper_s": "s",
    "training.update_s": "s", "training.updates": "count",
    "decoding.greedy_s": "s", "decoding.beam_s": "s", "decoding.sample_s": "s",
    "decoding.self_s": "s", "decoding.beam_candidates": "count", "decoding.beam_keep_ratio": "ratio",
    "evaluation.score_pairs_s": "s", "evaluation.pairs": "count", "evaluation.self_s": "s",
    "evaluation.classify_s": "s", "evaluation.clips": "count",
    "trace.overhead_s": "s",
}


def _resolve(module_name, attr_path):
    """(owner object, attribute name) for a dotted attribute, or None."""
    owner = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1]


class Tracer:
    """Records spans while installed; restores every attribute on removal."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.beam_candidates = 0
        self._stack = []  # (span id, operation id, name)
        self._next_id = 0
        self._restore = []

    def _wrap(self, name, fn, work):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            if stack:
                parent, op = stack[-1][0], stack[-1][1]
            else:
                parent, op = None, sid
            stack.append((sid, op, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((sid, parent, op, name, start, end, work(args, kwargs, result)))
            return result

        return traced

    def _wrap_stepper(self, make_stepper):
        wrapped = self._wrap("models.stepper", make_stepper, _one)

        def stepper(*args, **kwargs):
            state, step = wrapped(*args, **kwargs)
            return state, self._wrap("models.step", step, _one)

        return stepper

    def _wrap_hypothesis(self, cls):
        stack = self._stack

        def build(*args, **kwargs):
            if stack and stack[0][2] == "decoding.beam":
                self.beam_candidates += 1
            return cls(*args, **kwargs)

        return build

    def _set(self, owner, attr, value):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, old))
        setattr(owner, attr, value)

    def install(self):
        for module_name, attr_path, name, work in TARGETS:
            found = _resolve(module_name, attr_path)
            if found is None:
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            owner, attr = found
            fn = getattr(owner, attr)
            if name == "models.stepper":
                self._set(owner, attr, self._wrap_stepper(fn))
            elif isinstance(owner, type):
                # A classmethod: keep it bound to its class.
                self._set(owner, attr, staticmethod(self._wrap(name, fn, work)))
            else:
                self._set(owner, attr, self._wrap(name, fn, work))
        found = _resolve(*HYPOTHESIS)
        if found is None:
            self.missing.append(".".join(HYPOTHESIS))
        else:
            owner, attr = found
            self._set(owner, attr, self._wrap_hypothesis(getattr(owner, attr)))
        return self

    def remove(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def missing_metrics(self):
        """Per-layer metric names that depend on a missing hook."""
        spans = {f"{module}.{attr}": name for module, attr, name, _ in TARGETS}
        out = set()
        for target in self.missing:
            out.update(DEPENDS.get(spans.get(target, target.rsplit(".", 1)[-1]), ()))
        return sorted(out)

    def mark(self):
        """Start of the traced cycle; spans before it belong to set-up."""
        self.beam_candidates = 0
        return len(self.spans)

    def layer_metrics(self, mark, overhead_s):
        """Per-layer totals of the traced cycle: the spans after ``mark``.

        ``data.load_s`` is the one exception: it comes from the traced
        set-up before ``mark``, because a cycle loads no files.
        """
        load_s = sum(end - start for _, _, _, name, start, end, _ in self.spans[:mark] if name == "data.load")
        spans = self.spans[mark:]
        dur = defaultdict(float)
        calls = defaultdict(int)
        work = defaultdict(int)
        self_time = defaultdict(float)
        child = defaultdict(float)
        names = {}
        for sid, parent, op, name, start, end, w in spans:
            names[sid] = name
            if parent is not None:
                child[parent] += end - start
        for sid, parent, op, name, start, end, w in spans:
            dur[name] += end - start
            calls[name] += 1
            work[name] += w
            self_time[name] += (end - start) - child[sid]
        updates = 0
        clips = 0
        beam_steps = 0
        for sid, parent, op, name, start, end, w in spans:
            if name == "data.batch" and parent is not None and names[parent] == "training.fit":
                updates += 1
            elif name == "models.classify" and names[op] == "evaluation.classify":
                clips += 1
            elif name == "models.step" and names[op] == "decoding.beam":
                beam_steps += 1

        def layer_self(prefix):
            return sum(v for k, v in self_time.items() if k.startswith(prefix))

        cell_s = dur["cells.forward"] + dur["cells.backward"]
        cell_steps = work["cells.forward"] + work["cells.backward"]
        kept = beam_steps + work["decoding.beam"]
        out = {
            "data.load_s": load_s,
            "data.batch_s": dur["data.batch"],
            "data.batches": calls["data.batch"],
            "features.forward_s": dur["features.forward"],
            "features.forward_calls": calls["features.forward"],
            "features.backward_s": dur["features.backward"],
            "features.backward_calls": calls["features.backward"],
            "cells.forward_s": dur["cells.forward"],
            "cells.backward_s": dur["cells.backward"],
            "cells.forward_steps": work["cells.forward"],
            "cells.backward_steps": work["cells.backward"],
            "cells.unroll_calls": calls["cells.forward"],
            "tensor_ops.sigmoid_s": dur["tensor_ops.sigmoid"],
            "tensor_ops.sigmoid_calls": calls["tensor_ops.sigmoid"],
            "tensor_ops.log_softmax_s": dur["tensor_ops.log_softmax"],
            "tensor_ops.log_softmax_calls": calls["tensor_ops.log_softmax"],
            "tensor_ops.softmax_s": dur["tensor_ops.softmax"],
            "tensor_ops.softmax_calls": calls["tensor_ops.softmax"],
            "tensor_ops.dropout_mask_s": dur["tensor_ops.dropout_mask"],
            "tensor_ops.dropout_mask_calls": calls["tensor_ops.dropout_mask"],
            "models.loss_s": dur["models.loss"],
            "models.loss_calls": calls["models.loss"],
            "models.self_s": layer_self("models."),
            "models.step_s": dur["models.step"],
            "models.step_calls": calls["models.step"],
            "models.stepper_s": dur["models.stepper"],
            "training.update_s": self_time["training.fit"],
            "training.updates": updates,
            "decoding.greedy_s": dur["decoding.greedy"],
            "decoding.beam_s": dur["decoding.beam"],
            "decoding.sample_s": dur["decoding.sample"],
            "decoding.self_s": layer_self("decoding."),
            "decoding.beam_candidates": self.beam_candidates,
            "evaluation.score_pairs_s": dur["evaluation.score_pairs"],
            "evaluation.pairs": work["evaluation.score_pairs"],
            "evaluation.self_s": layer_self("evaluation."),
            "evaluation.classify_s": dur["evaluation.classify"],
            "evaluation.clips": clips,
        }
        out["cells.steps_per_s"] = cell_steps / cell_s if cell_s > 0 else 0.0
        out["decoding.beam_keep_ratio"] = kept / self.beam_candidates if self.beam_candidates else 0.0
        out["trace.overhead_s"] = overhead_s
        return {name: out[name] for name in LAYER_METRICS}

    def write(self, path, meta):
        """Save the spans, gzip-compressed JSON, with the run's metadata."""
        doc = {
            "meta": meta,
            "fields": ["id", "parent", "op", "name", "start", "end", "work"],
            "missing": self.missing,
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
