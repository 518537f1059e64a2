"""Temporal context blending of neighbour-frame features into the center
frame.

Each frame slot pools its feature map into a single channel vector with
softmax attention over spatial positions, transforms that vector through a
bottleneck, adds it back over the slot's embedded map, and a per-slot
scalar gate mixes the result into the center feature.  Gates start at
exactly zero, so an initialized blender is a no-op and cannot degrade the
start of training.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .nn import Conv2d, LayerNorm, Linear, Module, Parameter
from .tensor import Tensor


@dataclass
class TCMConfig:
    enabled: bool = True
    reduction: int = 4          # bottleneck ratio in the transform stack
    include_center: bool = True  # center slot contributes a context term
    tied_neighbors: bool = False  # non-center slots share one weight set

    def validate(self):
        if self.reduction < 1:
            raise ValueError(f"reduction must be a positive int, got {self.reduction}")

    def bottleneck(self, channels: int) -> int:
        """Width of each slot's transform stack."""
        return max(channels // self.reduction, 1)

    def active_slots(self, t: int) -> list[int]:
        """Snippet positions that add a context term to the center."""
        return [i for i in range(t) if self.include_center or i != t // 2]


class SlotWeights(Module):
    """Key + transform stack + gate for one frame slot."""

    def __init__(self, channels: int, hidden: int):
        super().__init__()
        self.key = Conv2d(channels, 1, 1)
        self.squeeze = Linear(channels, hidden)
        self.norm = LayerNorm(hidden)
        self.expand = Linear(hidden, channels)
        self.gate = Parameter((1,))  # zero-init: blending off at start

    def transform(self, ctx: Tensor) -> Tensor:
        h = self.squeeze.forward(ctx.reshape(1, -1))
        h = T.relu(self.norm.forward(h))
        return self.expand.forward(h).reshape(-1)


class TemporalContextModule(Module):
    def __init__(self, channels: int, t: int, cfg: TCMConfig | None = None):
        super().__init__()
        if t % 2 == 0:
            raise ValueError(f"snippet length must be odd, got {t}")
        cfg = cfg or TCMConfig()
        cfg.validate()
        self.cfg = cfg
        self.t = t
        self.center = (t - 1) // 2
        self.embed = Conv2d(channels, channels, 1)
        hidden = cfg.bottleneck(channels)
        shared = SlotWeights(channels, hidden) if cfg.tied_neighbors else None
        self.slots = [shared if cfg.tied_neighbors and i != self.center
                      else SlotWeights(channels, hidden) for i in range(t)]

    def pool(self, x: Tensor, slot: int) -> tuple[Tensor, Tensor]:
        """Embedded map plus its softmax-attention pooled [C] context vector."""
        if slot >= self.t:
            raise ValueError(f"slot {slot} out of range for t={self.t}")
        emb = self.embed.forward(x)
        logits = self.slots[slot].key.forward(x).reshape(1, -1)  # [1, H'W']
        xhat = T.softmax(logits, axis=-1)
        ctx = T.matmul(emb.reshape(emb.shape[0], -1), xhat.reshape(-1, 1))
        return emb, ctx.reshape(-1)

    def forward(self, features: list[Tensor]) -> Tensor:
        """The [C, H', W'] center feature with temporal context mixed in;
        the model routes it to both the encoder and the temporal skip."""
        if len(features) != self.t:
            raise ValueError(f"expected {self.t} frame features, got {len(features)}")
        shapes = {f.shape for f in features}
        if len(shapes) > 1:
            raise ValueError(f"frame features must share one shape, got {sorted(shapes)}")
        blended = features[self.center]
        for n in self.cfg.active_slots(self.t):
            slot = self.slots[n]
            emb, ctx = self.pool(features[n], n)
            g_n = emb + slot.transform(ctx).reshape(-1, 1, 1)
            blended = blended + slot.gate.reshape(()) * g_n
        return blended
