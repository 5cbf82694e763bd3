"""Span recording around the public callables of each handmesh layer.

While `Tracer.installed()` is open, the class-level `__call__` of the layer
modules and a set of public functions and methods are wrapped, so every
call made inside an open region (one benchmark op, or one set-up) becomes
a span: name, parent span, op index, start and end. Module spans are
named by the instance's dotted name as `named_parameters` spells it
(`tokens.backbone.stages.0`), resolved when a `HandMeshModel` is first
called. Spans stay in memory; `summarize` turns them into the per-layer
metrics.
"""

import contextlib
import functools
import statistics
import sys
import time
import weakref
from collections import defaultdict

from handmesh import autograd, dataio, losses, metrics, optim, regressor, synth, tokens, train
from handmesh.model import HandMeshModel
from handmesh.nn import Affine, Conv2d, ConvTranspose2d, Module

MODULE_CLASSES = (Conv2d, ConvTranspose2d, tokens.ToyBackbone, tokens.FeatureUpsampler,
                  regressor.DecoderLayer, Affine)

# functions are patched in every handmesh namespace that holds them, so
# call sites that did `from .x import f` are wrapped too
FUNCTIONS = (
    (dataio, "generate_dataset", "dataio.generate_dataset"),
    (dataio, "save_checkpoint", "dataio.save_checkpoint"),
    (synth, "generate_sample", "synth.generate_sample"),
    (tokens, "soft_argmax_2d", "tokens.soft_argmax_2d"),
    (tokens, "sample_tokens", "tokens.sample_tokens"),
    (losses, "total_loss", "losses.total_loss"),
    (train, "dataset_loss", "train.dataset_loss"),
    (metrics, "compute_report", "metrics.compute_report"),
)
METHODS = (
    (dataio.Dataset, "batch", "dataio.batch"),
    (autograd.Tape, "backward", "autograd.backward"),
    (optim.AdamW, "step", "optim.step"),
)

# metric -> (span name, factor from seconds, phase); the mean per call
# over the spans of that phase, 0 when the workload never makes the call.
# Calls made inside train.dataset_loss (batch 16, no tape) are left out, so
# on train_kp the layer figures are those of the batch-4 training steps.
MEAN_PER_CALL = {
    **{f"tokens.backbone.stage{i}.fwd_ms": (f"tokens.backbone.stages.{i}", 1e3, "op") for i in range(5)},
    "tokens.upsampler.fwd_ms": ("tokens.upsampler", 1e3, "op"),
    "tokens.kp_head.fwd_ms": ("tokens.kp_head", 1e3, "op"),
    "tokens.soft_argmax_2d.fwd_ms": ("tokens.soft_argmax_2d", 1e3, "op"),
    "tokens.sample_tokens.fwd_ms": ("tokens.sample_tokens", 1e3, "op"),
    **{f"regressor.layers.{i}.fwd_ms": (f"regressor.layers.{i}", 1e3, "op") for i in range(3)},
    "regressor.head.fwd_ms": ("regressor.head", 1e3, "op"),
    "model.fwd_ms": ("model", 1e3, "op"),
    "losses.total_loss_ms": ("losses.total_loss", 1e3, "op"),
    "autograd.backward_ms": ("autograd.backward", 1e3, "op"),
    "optim.step_ms": ("optim.step", 1e3, "op"),
    "train.dataset_loss_s": ("train.dataset_loss", 1.0, "op"),
    "dataio.save_checkpoint_ms": ("dataio.save_checkpoint", 1e3, "op"),
    "dataio.batch_ms": ("dataio.batch", 1e3, "op"),
    "dataio.generate_dataset_s": ("dataio.generate_dataset", 1.0, "setup"),
    "synth.generate_sample_ms": ("synth.generate_sample", 1e3, "setup"),
    "metrics.compute_report_ms": ("metrics.compute_report", 1e3, "op"),
}

# top-level spans of one training step, by the part of the step they time
STEP_PARTS = {"dataio.batch": "data", "model": "forward", "losses.total_loss": "loss",
              "autograd.backward": "backward", "optim.step": "optim"}

def module_names(root):
    """Map every Module under root to its dotted name, as named_parameters spells it."""
    names = {}

    def walk(prefix, obj):
        if isinstance(obj, Module):
            names[obj] = prefix
            for key, value in vars(obj).items():
                walk(f"{prefix}.{key}" if prefix else key, value)
        elif isinstance(obj, (list, tuple)):
            for i, value in enumerate(obj):
                walk(f"{prefix}.{i}", value)

    walk("", root)
    return names


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, op index or None, start, end]
        self.tape_nodes = []  # len(tape) at each Tape.backward
        self.conv_calls = {}  # layer name -> first call, preferring one that records a backward
        self._names = weakref.WeakKeyDictionary()
        self._stack = []
        self._op = None

    @contextlib.contextmanager
    def region(self, name, op=None):
        """Record spans while open; `op` is the op index, None for set-up."""
        self._op = op
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)
            self._op = None

    def _enter(self, name):
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, self._op,
                           time.perf_counter(), None])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = self._enter(name(args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _register_model(self, args):
        if args[0] not in self._names:
            self._names.update(module_names(args[0]))

    def _module_name(self, args):
        return self._names.get(args[0], type(args[0]).__name__)

    def _count_tape(self, args):
        self.tape_nodes.append(len(args[0]))

    def _record_conv(self, args, out):
        layer, x = args[0], args[1]
        name = self._names.get(layer)
        prev = self.conv_calls.get(name)
        # a Tape is recording this call exactly when its output requires grad
        if name is None or (prev is not None and (prev["backward"] or not out.requires_grad)):
            return
        self.conv_calls[name] = {
            "transposed": isinstance(layer, ConvTranspose2d), "x": x.data.copy(),
            "x_grad": x.requires_grad, "w": layer.weight.data.copy(), "b": layer.bias.data.copy(),
            "stride": layer.stride, "padding": layer.padding, "backward": out.requires_grad,
        }

    @contextlib.contextmanager
    def installed(self):
        patches = []

        def patch(owner, attr, new):
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        patch(HandMeshModel, "__call__",
              self._wrap(HandMeshModel.__call__, "model", before=self._register_model))
        for cls in MODULE_CLASSES:
            after = self._record_conv if cls in (Conv2d, ConvTranspose2d) else None
            patch(cls, "__call__", self._wrap(cls.__call__, self._module_name, after=after))
        for cls, attr, name in METHODS:
            before = self._count_tape if cls is autograd.Tape else None
            patch(cls, attr, self._wrap(getattr(cls, attr), name, before=before))
        modules = [m for n, m in sys.modules.items() if n == "handmesh" or n.startswith("handmesh.")]
        for owner, attr, name in FUNCTIONS:
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        patch(mod, key, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


def _fmean(values):
    return statistics.fmean(values) if values else 0.0


def _training_steps(spans, top):
    """(duration, {part: seconds}) of each training step.

    A step runs from one top-level `dataio.batch` to the next, or for the
    last step of an op, to the top-level span after its `optim.step`; its
    parts are the top-level spans in between, so parts plus the uncovered
    remainder add up to the step exactly.
    """
    steps = []
    for seq in top.values():
        if not any(spans[i][0] == "optim.step" for i in seq):
            continue
        starts = [k for k, i in enumerate(seq) if spans[i][0] == "dataio.batch"]
        last_optim = max(k for k, i in enumerate(seq) if spans[i][0] == "optim.step")
        for a, k in enumerate(starts):
            end_k = starts[a + 1] if a + 1 < len(starts) else last_optim + 1
            begin = spans[seq[k]][3]
            end = spans[seq[end_k]][3] if end_k < len(seq) else spans[spans[seq[k]][1]][4]
            parts = defaultdict(float)
            for i in seq[k:end_k]:
                name, _, _, t0, t1 = spans[i]
                if name in STEP_PARTS:
                    parts[STEP_PARTS[name]] += t1 - t0
            steps.append((end - begin, parts))
    return steps


def summarize(tracer):
    """Per-layer metrics of a traced run, from its spans."""
    spans = tracer.spans
    per_call = {"op": defaultdict(list), "setup": defaultdict(list)}
    top = defaultdict(list)  # op span index -> its direct children, in start order
    ops = []
    in_dataset_loss = []
    for i, (name, parent, op, t0, t1) in enumerate(spans):
        in_dataset_loss.append(parent >= 0 and (in_dataset_loss[parent]
                                                or spans[parent][0] == "train.dataset_loss"))
        if not in_dataset_loss[i]:
            per_call["setup" if op is None else "op"][name].append(t1 - t0)
        if name == "op":
            ops.append(i)
        elif parent >= 0 and spans[parent][0] == "op":
            top[parent].append(i)
    out = {metric: factor * _fmean(per_call[phase].get(span, []))
           for metric, (span, factor, phase) in MEAN_PER_CALL.items()}
    out["dataio.batch_calls"] = sum(
        1 for name, _, op, _, _ in spans if name == "dataio.batch" and op is not None) / len(ops)
    out["autograd.tape_nodes"] = _fmean(tracer.tape_nodes)
    out["trace.uncovered_ms"] = 1e3 * _fmean(
        [spans[i][4] - spans[i][3] - sum(spans[c][4] - spans[c][3] for c in top[i]) for i in ops])
    steps = _training_steps(spans, top)
    durations = [d for d, _ in steps]
    out["train.step_ms.p50"] = 1e3 * statistics.median(durations) if steps else 0.0
    out["train.step_ms.mean"] = 1e3 * _fmean(durations)
    for part in STEP_PARTS.values():
        out[f"train.step.{part}_ms"] = 1e3 * _fmean([p[part] for _, p in steps])
    out["train.step.uncovered_ms"] = 1e3 * _fmean([d - sum(p.values()) for d, p in steps])
    return out
