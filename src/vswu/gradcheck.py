"""Finite-difference gradient checks shared by ``vswu gradcheck`` and the
test suite: one case per differentiable kernel plus a composite model.

A kernel case takes a numpy generator and returns ``(fn, x)``: a
scalar-valued function of one tensor and the float64 point to check it at.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .backbone import BackboneConfig
from .decoder import DecoderConfig
from .losses import combined_loss
from .model import ModelConfig, SnippetSegmenter
from .swin import SwinConfig
from .tensor import Tensor, finite_diff_check


def _sq(y: Tensor) -> Tensor:
    """The scalar each case differentiates: the sum of squares of ``y``."""
    return (y * y).sum()


def _case_matmul(rng):
    b = Tensor(rng.normal(size=(4, 2)))
    return lambda t: _sq(T.matmul(t, b)), rng.normal(size=(3, 4))


def _case_conv2d(rng):
    k = Tensor(rng.normal(size=(2, 2, 3, 3)))
    b = Tensor(rng.normal(size=2))
    return (lambda t: _sq(T.conv2d(t, k, stride=2, pad=1, bias=b)),
            rng.normal(size=(2, 6, 6)))


def _case_conv2d_s1(rng):
    # stride 1 takes the padded-grid input gradient; the input is not square
    k = Tensor(rng.normal(size=(3, 2, 3, 3)))
    b = Tensor(rng.normal(size=3))
    return (lambda t: _sq(T.conv2d(t, k, stride=1, pad=1, bias=b)),
            rng.normal(size=(2, 5, 7)))


def _case_softmax(rng):
    return lambda t: _sq(T.softmax(t, -1)), rng.normal(size=(3, 5))


def _case_layer_norm(rng):
    g, b = Tensor(rng.normal(size=6)), Tensor(rng.normal(size=6))
    return lambda t: _sq(T.layer_norm(t, g, b)), rng.normal(size=(4, 6))


def _case_gelu(rng):
    return lambda t: _sq(T.gelu(t)), rng.normal(size=8) + 0.1


def _case_sigmoid(rng):
    return lambda t: _sq(T.sigmoid(t)), rng.normal(size=8)


def _case_relu(rng):
    # keep samples away from the kink at zero
    x = np.sign(rng.normal(size=8)) * (0.2 + np.abs(rng.normal(size=8)))
    return lambda t: _sq(T.relu(t)), x


def _case_clip(rng):
    # keep samples away from the bounds at -1 and 1, inside and outside them
    x = rng.uniform(0.2, 0.8, size=8) + np.array([0.0, 1.0] * 4)
    return lambda t: _sq(T.clip(t, -1.0, 1.0)), x * np.sign(rng.normal(size=8))


def _case_log(rng):
    return lambda t: T.log(t).sum(), rng.random(6) + 0.5


def _case_upsample2x(rng):
    return lambda t: _sq(T.upsample2x(t)), rng.normal(size=(2, 3, 4))


def _case_concat(rng):
    return lambda t: _sq(T.concat([t, t * 2.0], axis=0)), rng.normal(size=(3, 4))


def _case_roll(rng):
    return lambda t: _sq(T.roll(t, (1, -2), (0, 1))), rng.normal(size=(4, 5))


def _case_getitem_rows(rng):
    # row 2 is gathered twice, so the backward must accumulate both
    idx = np.array([0, 2, 2, 1])
    return lambda t: _sq(t[idx]), rng.normal(size=(3, 4))


def _case_getitem(rng):
    return lambda t: _sq(t[1:, ::2]), rng.normal(size=(4, 6))


def _case_transpose(rng):
    w = Tensor(rng.normal(size=(4, 2)))
    return (lambda t: _sq(T.matmul(T.transpose(t, (1, 0, 2)), w)),
            rng.normal(size=(2, 3, 4)))


def _case_mean(rng):
    return lambda t: _sq(t.mean(axis=1)), rng.normal(size=(3, 5))


def _case_div(rng):
    d = Tensor(rng.random(6) + 1.0)
    return lambda t: (t / d).sum(), rng.normal(size=6)


KERNEL_CASES = {
    "matmul": _case_matmul, "conv2d": _case_conv2d, "conv2d_s1": _case_conv2d_s1,
    "softmax": _case_softmax, "layer_norm": _case_layer_norm, "gelu": _case_gelu,
    "sigmoid": _case_sigmoid, "relu": _case_relu, "clip": _case_clip, "log": _case_log,
    "upsample2x": _case_upsample2x, "concat": _case_concat, "roll": _case_roll,
    "getitem_rows": _case_getitem_rows, "getitem": _case_getitem,
    "transpose": _case_transpose,
    "mean": _case_mean, "div": _case_div,
}


def _composite_error() -> float:
    """Worst error of a tiny snippet model's loss, with its temporal gates
    open, with respect to each input frame, one gate and the head bias."""
    cfg = ModelConfig(
        h=16, w=16, t=3,
        backbone=BackboneConfig(stage_channels=(2, 4, 6, 8)),
        swin=SwinConfig(embed_dim=8, depths=(2,), heads=(2,), window_size=(1,)),
        decoder=DecoderConfig(stage_channels=(8, 6, 4, 4)))
    model = SnippetSegmenter(cfg, seed=31)
    for i, slot in enumerate(model.tcm.slots):  # open the gates so neighbours matter
        slot.gate.data = np.array([0.2 + 0.1 * i])
    rng = np.random.default_rng(32)
    frames = [Tensor(rng.random((1, 16, 16))) for _ in range(3)]
    label = (rng.random((2, 16, 16)) > 0.5).astype(np.float64)

    def loss(trial):
        return combined_loss(model.forward(trial).probs, label)

    errors = [finite_diff_check(lambda t, i=i: loss(frames[:i] + [t] + frames[i + 1:]),
                                frames[i]) for i in range(3)]
    for holder, attr in ((model.tcm.slots[0], "gate"), (model.head.conv2, "b")):
        # swap the parameter for the probe tensor so the graph reaches it
        orig = getattr(holder, attr)

        def f(t, holder=holder, attr=attr):
            setattr(holder, attr, t)
            return loss(frames)

        try:
            errors.append(finite_diff_check(f, Tensor(orig.data.copy())))
        finally:
            setattr(holder, attr, orig)
    return max(errors)


def max_errors(samples: int, seed: int = 7) -> dict[str, float]:
    """Worst relative error per kernel over ``samples`` cases, case ``s``
    drawn from generator ``seed + s``, plus ``composite``."""
    worst: dict[str, float] = {}
    with T.precision("float64"):
        for name, case in KERNEL_CASES.items():
            for s in range(samples):
                fn, x = case(np.random.default_rng(seed + s))
                worst[name] = max(worst.get(name, 0.0), finite_diff_check(fn, Tensor(x)))
        worst["composite"] = _composite_error()
    return worst
