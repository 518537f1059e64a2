"""Layer building blocks: parameters, modules, and the init policy.

Parameters are created as zeros carrying an init spec; a single
:func:`init_parameters` pass fills every parameter from a stream derived
from ``(seed, "init", parameter_name)``, so initialization depends only on
the fully qualified name, never on construction order.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import rng as vrng
from . import tensor as T
from .tensor import Tensor


class Parameter(Tensor):
    """Trainable tensor with an attached init spec ``(kind, *args)``."""

    __slots__ = ("init_spec",)

    def __init__(self, shape, init=("zeros",)):
        super().__init__(np.zeros(shape, dtype=T.default_dtype()), requires_grad=True)
        self.init_spec = init


class Module:
    """Minimal container tree with named parameter traversal."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        elif isinstance(value, (list, tuple)) and value and all(
                isinstance(v, Module) for v in value):
            for i, v in enumerate(value):
                self._children[f"{name}.{i}"] = v
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield unique (name, parameter) pairs; shared submodules appear once."""
        seen: set[int] = set()
        yield from self._walk(prefix, seen)

    def _walk(self, prefix, seen):
        for name, p in self._params.items():
            if id(p) not in seen:
                seen.add(id(p))
                yield (f"{prefix}.{name}" if prefix else name), p
        for name, child in self._children.items():
            if id(child) in seen:
                continue
            seen.add(id(child))
            yield from child._walk(f"{prefix}.{name}" if prefix else name, seen)

    def param_count(self) -> int:
        return sum(p.size for _, p in self.named_parameters())


def init_parameters(module: Module, seed: int) -> None:
    """Fill every parameter from a per-name deterministic stream."""
    for name, p in module.named_parameters():
        kind, *args = p.init_spec
        gen = vrng.generator(seed, "init", name)
        if kind == "zeros":
            data = np.zeros(p.shape)
        elif kind == "ones":
            data = np.ones(p.shape)
        elif kind == "he_normal":
            fan_in = args[0]
            data = gen.normal(0.0, math.sqrt(2.0 / fan_in), size=p.shape)
        elif kind == "trunc_normal":
            data = vrng.truncated_normal(gen, p.shape, args[0])
        else:
            raise ValueError(f"unknown init spec {p.init_spec!r} for {name}")
        p.data = data.astype(p.data.dtype)


class Conv2d(Module):
    """3x3/1x1 convolution layer (cross-correlation) with He fan-in init."""

    def __init__(self, cin: int, cout: int, k: int, stride: int = 1,
                 pad: int = 0, bias: bool = True):
        super().__init__()
        self.stride = stride
        self.pad = pad
        self.w = Parameter((cout, cin, k, k), init=("he_normal", cin * k * k))
        self.b = Parameter((cout,)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.w, stride=self.stride, pad=self.pad, bias=self.b)


class Linear(Module):
    """Affine map on the last axis; truncated-normal(0.02) init."""

    def __init__(self, cin: int, cout: int, bias: bool = True, std: float = 0.02):
        super().__init__()
        self.w = Parameter((cout, cin), init=("trunc_normal", std))
        self.b = Parameter((cout,)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = T.matmul(x, T.transpose(self.w, (1, 0)))
        if self.b is not None:
            out = out + self.b
        return out


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = Parameter((dim,), init=("ones",))
        self.beta = Parameter((dim,))

    def forward(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta, eps=self.eps)
