"""Cascaded up-sampling decoder and the two-channel segmentation head.

The token map enters at 1/16 resolution (optionally concatenated with the
temporal skip feature), then four stages of nearest-neighbour x2 upsample,
skip concatenation where available, and conv3x3 + ReLU rebuild the input
resolution.  Each stage is one ``tensor.upsample_conv2d`` call: training
records exactly those three ops, and a no-graph forward on an input wider
than 8 folds the upsample into the conv.  The head maps to two per-pixel
sigmoid probabilities: channel 0 bolus, channel 1 pharynx.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .nn import Conv2d, Module
from .tensor import Tensor


@dataclass
class DecoderConfig:
    stage_channels: tuple[int, int, int, int] = (128, 64, 32, 16)
    tsc_enabled: bool = True
    skips_enabled: bool = True

    def validate(self):
        if len(self.stage_channels) != 4 or min(self.stage_channels) < 1:
            raise ValueError("stage_channels must be 4 positive ints, "
                             f"got {list(self.stage_channels)}")


@dataclass
class SegmentationOutput:
    probs: Tensor   # [2, H, W] in (0, 1); channel 0 bolus, channel 1 pharynx
    logits: Tensor  # [2, H, W] pre-sigmoid


class Decoder(Module):
    def __init__(self, in_channels: tuple[int, ...], cfg: DecoderConfig):
        """``in_channels``: each stage conv's input width, ``ModelConfig.decoder_inputs``."""
        super().__init__()
        cfg.validate()
        self.cfg = cfg
        self.convs = [Conv2d(cin, ch, 3, pad=1)
                      for cin, ch in zip(in_channels, cfg.stage_channels)]

    def forward(self, token_map: Tensor, tsc: Tensor | None,
                skips: tuple[Tensor, Tensor, Tensor] | None) -> Tensor:
        """Rebuild the input resolution; reads ``tsc`` and ``skips`` only if enabled."""
        x = token_map
        if self.cfg.tsc_enabled:
            if tsc.shape[1:] != x.shape[1:]:
                raise ValueError(f"tsc resolution {tsc.shape} does not match tokens {x.shape}")
            x = T.concat([x, tsc], axis=0)
        skips = skips if self.cfg.skips_enabled else ()
        for i, conv in enumerate(self.convs):
            c, h, w = x.shape
            skip = skips[i] if i < len(skips) else None
            if skip is not None and skip.shape[1:] != (2 * h, 2 * w):
                raise ValueError(f"skip {i} resolution {skip.shape} does not match "
                                 f"stage {(c, 2 * h, 2 * w)}")
            x = T.relu(T.upsample_conv2d(x, skip, conv.w, conv.b))
        return x


class SegHead(Module):
    """conv3x3 + ReLU then conv1x1 to two channels, per-pixel sigmoid."""

    def __init__(self, cin: int):
        super().__init__()
        self.conv1 = Conv2d(cin, cin, 3, pad=1)
        self.conv2 = Conv2d(cin, 2, 1)

    def forward(self, x: Tensor) -> SegmentationOutput:
        logits = self.conv2.forward(T.relu(self.conv1.forward(x)))
        return SegmentationOutput(probs=T.sigmoid(logits), logits=logits)
