"""Span recorder for the traced benchmark run.

The recorder wraps public functions and methods of the ``vswu`` package
from outside the package: nothing under ``src/`` knows it is being traced.
Each call to a wrapped target records a span (name, parent span, start,
end, and counts such as dense FLOPs) in memory; :meth:`Recorder.summary`
turns the spans into per-name totals and self times, and attributes every
kernel call to the model component (a-e) whose span encloses it.

A function imported by name into several modules (``write_pgm`` lives in
``pgm`` and is bound again in ``dataset`` and ``cli``) is replaced at every
binding site inside the package.  A target that no longer exists is
reported as missing instead of raising, so a refactor that deletes a
method does not crash the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

# component spans and the letter costs.component_costs uses for them
COMPONENTS = {"backbone": "a", "tcm": "b", "swin": "c", "decoder": "d",
              "decoder.head": "e"}


def _shape(x) -> tuple:
    return tuple(getattr(getattr(x, "data", x), "shape", ()))


def _size(shape: tuple) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# ---- per-target counters, run after the wrapped call returns -------------


def _conv2d_counts(rec, span, args, kwargs, out):
    k = _shape(_arg(args, kwargs, 1, "k"))
    cout, per_out = k[0], _size(k[1:])
    positions = _size(_shape(out)) // cout      # batch x Ho x Wo
    span.flops = 2 * cout * per_out * positions
    # im2col buffer: one row of Cin*kh*kw values per output position
    span.bytes = positions * per_out * out.data.itemsize
    rec.time_backward(out, "tensor.conv2d.bwd")


def _matmul_counts(rec, span, args, kwargs, out):
    inner = _shape(_arg(args, kwargs, 0, "a"))[-1]
    span.flops = 2 * _size(_shape(out)) * inner
    rec.time_backward(out, "tensor.matmul.bwd")


def _frames(rec, span, args, kwargs, out):
    shape = _shape(_arg(args, kwargs, 1, "frame"))
    span.items = _size(shape[:-3]) if len(shape) > 3 else 1


def _outputs(rec, span, args, kwargs, out):
    shape = _shape(out.probs)
    span.items = _size(shape[:-3]) if len(shape) > 3 else 1


def _file_bytes(rec, span, args, kwargs, out):
    span.bytes = os.path.getsize(_arg(args, kwargs, 0, "path"))


@dataclass(frozen=True)
class Hook:
    span: str
    module: str
    target: str                      # "fn" or "Class.method"
    counts: Callable | None = None


HOOKS = (
    Hook("tensor.conv2d", "vswu.tensor", "conv2d", _conv2d_counts),
    Hook("tensor.matmul", "vswu.tensor", "matmul", _matmul_counts),
    Hook("tensor.softmax", "vswu.tensor", "softmax"),
    Hook("tensor.layer_norm", "vswu.tensor", "layer_norm"),
    Hook("tensor.upsample2x", "vswu.tensor", "upsample2x"),
    Hook("tensor.concat", "vswu.tensor", "concat"),
    Hook("tensor.backward", "vswu.tensor", "backward"),
    Hook("backbone", "vswu.backbone", "Backbone.forward", _frames),
    Hook("tcm", "vswu.tcm", "TemporalContextModule.forward"),
    Hook("swin", "vswu.swin", "SwinEncoder.forward"),
    Hook("decoder", "vswu.decoder", "Decoder.forward"),
    Hook("decoder.head", "vswu.decoder", "SegHead.forward", _outputs),
    Hook("optim.adam_step", "vswu.optim", "Adam.step"),
    Hook("dataset.augment", "vswu.dataset", "augment"),
    Hook("losses.combined_loss", "vswu.losses", "combined_loss"),
    Hook("dataset.window_snippets", "vswu.dataset", "window_snippets"),
    Hook("pgm.read", "vswu.pgm", "read_pgm"),
    Hook("pgm.write", "vswu.pgm", "write_pgm"),
    Hook("metrics.hd95", "vswu.metrics", "hd95"),
    Hook("metrics.asd", "vswu.metrics", "asd"),
    Hook("training.save_checkpoint", "vswu.training", "save_checkpoint", _file_bytes),
    Hook("training.load_checkpoint", "vswu.training", "load_checkpoint", _file_bytes),
)


class Span:
    __slots__ = ("name", "parent", "component", "t0", "t1", "flops", "bytes", "items")

    def __init__(self, name, parent, component):
        self.name, self.parent, self.component = name, parent, component
        self.t0 = self.t1 = 0.0
        self.flops = self.bytes = self.items = 0


@dataclass
class Totals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    flops: int = 0
    bytes: int = 0
    items: int = 0


class Recorder:
    """In-memory spans plus the patch table that produces them."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.sites: dict[str, list[str]] = {}
        self.missing: list[str] = []

    # ---- spans ------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        component = COMPONENTS.get(name)
        if component is None and parent >= 0:
            component = self.spans[parent].component
        span = Span(name, parent, component)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.t0 = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counts=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(span)
            if counts is not None:
                counts(rec, span, args, kwargs, out)
            return out

        return traced

    def time_backward(self, out, name: str) -> None:
        """Time the backward closure a kernel recorded on its output."""
        inner = getattr(out, "_backward", None)
        if inner is None:
            return
        rec = self

        def timed(g, grads):
            span = rec.open(name)
            try:
                inner(g, grads)
            finally:
                rec.close(span)

        out._backward = timed

    # ---- patching ---------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for hook in self.hooks:
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                self.missing.append(f"{hook.module}.{hook.target}")
                continue
            owner_name, _, attr = hook.target.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{hook.module}.{hook.target}")
                continue
            traced = self.wrap(hook.span, original, hook.counts)
            if owner_name:
                self._patch(owner, attr, original, traced,
                            f"{hook.module}.{hook.target}", hook.span)
                continue
            # a module-level function: replace it wherever the package binds it
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "vswu" or mod_name.startswith("vswu.")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, traced,
                                    f"{mod_name}.{name}", hook.span)

    def _patch(self, owner, attr, original, traced, site, span):
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))
        self.sites.setdefault(span, [])
        if site not in self.sites[span]:
            self.sites[span].append(site)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ---- results ----------------------------------------------------------

    def summary(self) -> tuple[dict[str, Totals], dict[str, int]]:
        """Per-name totals with self time, and dense FLOPs per component."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.t1 - s.t0
        totals: dict[str, Totals] = {}
        flops_by_component: dict[str, int] = {}
        for i, s in enumerate(self.spans):
            t = totals.setdefault(s.name, Totals())
            dur = s.t1 - s.t0
            t.calls += 1
            t.seconds += dur
            t.self_seconds += dur - child[i]
            t.flops += s.flops
            t.bytes += s.bytes
            t.items += s.items
            if s.flops and s.component is not None:
                flops_by_component[s.component] = \
                    flops_by_component.get(s.component, 0) + s.flops
        return totals, flops_by_component

    def silent(self, expected) -> list[str]:
        """Expected spans whose hook is installed but never fired: the
        workload no longer reaches that code path."""
        fired = {s.name for s in self.spans}
        return [name for name in expected if name in self.sites and name not in fired]
