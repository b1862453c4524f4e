"""Span tracer that wraps capseq's public functions from outside the package.

``Tracer.install()`` replaces every public module-level function of every
capseq module, and the public methods of the classes in ``CLASSES``, with a
wrapper that records one span per call: name, start, end, parent span and the
study or epoch the call belongs to. Names a module imported by value (for
example ``capseq.cli.two_stage_generate``) are replaced too, so every call
site sees the wrapper. ``uninstall()`` restores the originals. No file under
``src/`` changes.

Spans stay in memory (compact arrays) and are written out once, at the end
of the run. Per-name call counts and self time (span time minus the time of
its child spans) are aggregated as spans close. A few wrappers also add work
counts (bytes, flops, tokens) computed from their arguments.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import pkgutil
from array import array
from time import perf_counter

import numpy as np

# Methods traced per class, under the span prefix used in metric names.
CLASSES = {
    ("captioner", "CaptionModel"): "captioner",
    ("lm", "TransformerLm"): "lm",
    ("optim", "_Optimizer"): "optim",
    ("autodiff", "Tape"): "autodiff.Tape",
    ("tokenizers", "BpeVocabulary"): "tokenizers.BpeVocabulary",
    ("tokenizers", "WordVocabulary"): "tokenizers.WordVocabulary",
}

# Ops that require finite inputs today; their float operands are what the
# finiteness guard scans.
GUARDED_OPS = frozenset((
    "add", "sub", "mul", "matmul", "sigmoid", "tanh", "relu", "log", "powc",
    "clamp_min", "softmax", "log_softmax", "reduce_sum", "reduce_mean",
    "embedding_lookup", "conv2d", "adaptive_avg_pool", "dropout",
))

SPAN_LIMIT = 2_000_000  # spans kept for the trace file; aggregates stay exact


def _float_bytes(value) -> int:
    data = getattr(value, "data", value)
    if isinstance(data, np.ndarray):
        return data.nbytes if data.dtype.kind == "f" else 0
    if isinstance(data, float):
        return 8
    return 0


def _shape(value) -> tuple[int, ...]:
    return np.shape(getattr(value, "data", value))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, float] = {}
        self.contexts: list[str] = ["-"]
        self.context = 0
        self.dropped = 0
        self._name = array("I")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._ctx = array("I")
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return idx

    def set_context(self, label: str) -> None:
        self.context = len(self.contexts)
        self.contexts.append(label)

    def add(self, counter: str, amount: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0.0) + amount

    def span(self, name: str, fn, pre=None, post=None):
        """Wrap ``fn`` so each call records a span called ``name``.

        ``pre(args, kwargs) -> (args, kwargs)`` may rewrite the arguments;
        ``post(args, kwargs, result) -> result`` may count work or replace
        the result. Neither runs inside the span's timing.
        """
        idx = self._intern(name)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        names, starts, ends, parents, ctxs = (self._name, self._start, self._end,
                                              self._parent, self._ctx)

        def traced(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            row = len(starts)
            if row < SPAN_LIMIT:
                names.append(idx)
                parents.append(stack[-1][0] if stack else -1)
                ctxs.append(self.context)
                ends.append(0.0)
                starts.append(0.0)
            else:
                row = -1
                self.dropped += 1
            frame = [row, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[idx] += 1
                self_s[idx] += duration - frame[1]
                if row >= 0:
                    starts[row] = start
                    ends[row] = end
            if post is not None:
                result = post(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import capseq

        modules = {info.name: importlib.import_module(f"capseq.{info.name}")
                   for info in pkgutil.iter_modules(capseq.__path__)}
        hooks = self._hooks()
        wrapped: dict[int, object] = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapper = self.span(name, obj, *hooks.get(name, (None, None)))
                self._patch(module, attr, wrapper)
                wrapped[id(obj)] = wrapper
        for (short, cls_name), prefix in CLASSES.items():
            cls = getattr(modules[short], cls_name)
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                name = f"{prefix}.{attr}"
                pre, post = hooks.get(name, (None, None))
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self.span(name, raw.__func__, pre, post)))
                elif isinstance(raw, staticmethod):
                    self._patch(cls, attr, staticmethod(self.span(name, raw.__func__, pre, post)))
                elif inspect.isfunction(raw):
                    self._patch(cls, attr, self.span(name, raw, pre, post))
        # names imported by value, e.g. capseq.cli.two_stage_generate
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None and obj is not wrapper:
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- work counts --------------------------------------------------------------

    def _hooks(self) -> dict:
        add = self.add
        hooks: dict[str, tuple] = {}

        def guarded(args, kwargs, result):
            add("autodiff.input_bytes", sum(_float_bytes(a) for a in args)
                + sum(_float_bytes(v) for v in kwargs.values()))
            return result

        for op in GUARDED_OPS:
            hooks[f"autodiff.{op}"] = (None, guarded)

        def matmul(args, kwargs, result):
            a, b = _shape(args[0]), _shape(args[1])
            batch = int(np.prod(np.broadcast_shapes(a[:-2], b[:-2]))) if len(a) > 2 or len(b) > 2 else 1
            add("autodiff.matmul.flops", 2 * batch * a[-2] * a[-1] * b[-1])
            return guarded(args, kwargs, result)

        hooks["autodiff.matmul"] = (None, matmul)

        def backward(args, kwargs, result):
            add("autodiff.tape_entries", len(args[0]))
            return result

        hooks["autodiff.Tape.backward"] = (None, backward)

        def optim_step(args, kwargs, result):
            if result is False:
                add("optim.step.refused", 1)
            return result

        hooks["optim.step"] = (None, optim_step)

        def lm_forward(args, kwargs, result):
            add("lm.forward.tokens", len(args[1]))
            return result

        hooks["lm.forward"] = (None, lm_forward)

        def lm_step_function(args, kwargs, step):
            model, seed_ids = args[0], args[1] if len(args) > 1 else kwargs["seed_ids"]
            seed_len, block = len(seed_ids), model.config.block_size
            traced_step = self.span("lm.step", step)

            def counted(prefix):
                if seed_len + len(prefix) > block:
                    add("lm.step.slid", 1)
                return traced_step(prefix)

            return counted

        hooks["lm.step_function"] = (None, lm_step_function)

        def count_step_calls(args, kwargs):
            step_fn = args[0]

            def counted(prefix):
                add("decoding.step_fn_calls", 1)
                return step_fn(prefix)

            return (counted,) + tuple(args[1:]), kwargs

        def beam_tokens(args, kwargs, beams):
            add("decoding.output_tokens", len(beams[0].tokens) if beams else 0)
            return beams

        def greedy_tokens(args, kwargs, ids):
            add("decoding.output_tokens", len(ids))
            return ids

        hooks["decoding.beam_search"] = (count_step_calls, beam_tokens)
        hooks["decoding.greedy_decode"] = (count_step_calls, greedy_tokens)

        def encode_images(args, kwargs, result):
            add("captioner.encode.images", 1 if np.ndim(args[1]) == 2 else len(args[1]))
            return result

        hooks["captioner.encode"] = (None, encode_images)

        def bytes_written(counter):
            def post(args, kwargs, result):
                add(counter, os.path.getsize(args[0]))
                return result
            return post

        hooks["pgm.write_pgm"] = (None, bytes_written("pgm.bytes_written"))
        hooks["checkpoint.save_tensors"] = (None, bytes_written("checkpoint.bytes_written"))

        def bpe_encode(args, kwargs, result):
            add("tokenizers.BpeVocabulary.encode.bytes", len(args[1].encode("utf-8")))
            return result

        hooks["tokenizers.BpeVocabulary.encode"] = (None, bpe_encode)

        def epochs(stage):
            def pre(args, kwargs):
                callback = kwargs.get("epoch_callback")
                self.set_context(f"{stage}:epoch0")

                def on_epoch(epoch, model):
                    if callback is not None:
                        callback(epoch, model)
                    self.set_context(f"{stage}:epoch{epoch + 1}")

                return args, dict(kwargs, epoch_callback=on_epoch)
            return pre

        hooks["captioner.train_teacher_forcing"] = (epochs("sat"), None)
        hooks["lm.train_lm"] = (epochs("lm"), None)
        return hooks

    # -- results --------------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """``<span>.calls``, ``<span>.self_ms`` and every work count."""
        out = dict(self.counts)
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.self_ms"] = self.self_s[idx] * 1e3
        return out

    def write(self, path) -> None:
        """Spans as gzip TSV: name, start, end (s), parent row, context."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(f"# spans {len(self._start)} dropped {self.dropped}\n")
            fh.write("row\tname\tstart_s\tend_s\tparent\tcontext\n")
            names, contexts = self.names, self.contexts
            for row in range(len(self._start)):
                fh.write(f"{row}\t{names[self._name[row]]}\t{self._start[row]:.9f}\t"
                         f"{self._end[row]:.9f}\t{self._parent[row]}\t"
                         f"{contexts[self._ctx[row]]}\n")
