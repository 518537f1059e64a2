"""Per-frame residual CNN feature extractor.

Produces three skip features at 1/2, 1/4 and 1/8 resolution plus a deep
feature at 1/16.  The same parameters are applied to every frame of a
snippet (weight sharing), so the parameter count is independent of the
snippet length.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .nn import Conv2d, Module
from .tensor import Tensor


@dataclass
class BackboneConfig:
    stage_channels: tuple[int, int, int, int] = (16, 32, 64, 128)
    blocks_per_stage: int = 2

    def validate(self):
        c = self.stage_channels
        if len(c) != 4 or any(x < 1 for x in c) or list(c) != sorted(set(c)):
            raise ValueError(f"stage_channels must be 4 strictly increasing ints, got {c}")
        if self.blocks_per_stage < 1:
            raise ValueError(f"blocks_per_stage must be at least 1, got {self.blocks_per_stage}")


@dataclass
class BackboneOutput:
    s1: Tensor    # [c1, H/2,  W/2]
    s2: Tensor    # [c2, H/4,  W/4]
    s3: Tensor    # [c3, H/8,  W/8]
    deep: Tensor  # [c4, H/16, W/16]


class ResidualBlock(Module):
    """conv3x3-ReLU-conv3x3 plus skip, ReLU after the add.

    With stride 2 the skip is a 1x1 stride-2 projection; that projection is
    what remains when the second conv is zeroed.
    """

    def __init__(self, cin: int, cout: int, stride: int = 1):
        super().__init__()
        self.conv1 = Conv2d(cin, cout, 3, stride=stride, pad=1)
        self.conv2 = Conv2d(cout, cout, 3, stride=1, pad=1)
        self.proj = Conv2d(cin, cout, 1, stride=stride) if (stride != 1 or cin != cout) else None

    def forward(self, x: Tensor) -> Tensor:
        main = self.conv2.forward(T.relu(self.conv1.forward(x)))
        skip = self.proj.forward(x) if self.proj is not None else x
        return T.relu(main + skip)


class Backbone(Module):
    def __init__(self, cfg: BackboneConfig):
        super().__init__()
        cfg.validate()
        self.cfg = cfg
        c1, c2, c3, c4 = cfg.stage_channels
        self.stem = Conv2d(1, c1, 3, stride=2, pad=1)
        self.stage1 = self._make_stage(c1, c2, cfg.blocks_per_stage)
        self.stage2 = self._make_stage(c2, c3, cfg.blocks_per_stage)
        self.stage3 = self._make_stage(c3, c4, cfg.blocks_per_stage)

    @staticmethod
    def _make_stage(cin, cout, blocks):
        return [ResidualBlock(cin, cout, stride=2)] + [
            ResidualBlock(cout, cout) for _ in range(blocks - 1)]

    @staticmethod
    def _run_stage(stage, x):
        for block in stage:
            x = block.forward(x)
        return x

    def forward(self, frame: Tensor) -> BackboneOutput:
        _, h, w = frame.shape
        if h % 16 or w % 16:
            raise ValueError(f"frame extents must be divisible by 16, got {h}x{w}")
        s1 = T.relu(self.stem.forward(frame))
        s2 = self._run_stage(self.stage1, s1)
        s3 = self._run_stage(self.stage2, s2)
        deep = self._run_stage(self.stage3, s3)
        return BackboneOutput(s1=s1, s2=s2, s3=s3, deep=deep)
