"""Full snippet-to-segmentation model assembly.

Component map (used for checkpoint name prefixes and freeze sets):
  a: per-frame CNN backbone
  b: temporal context blender
  c: windowed-attention encoder
  d: cascaded up-sampling decoder
  e: segmentation head
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .backbone import Backbone, BackboneConfig, BackboneOutput
from .dataset import Snippet
from .decoder import Decoder, DecoderConfig, SegHead, SegmentationOutput
from .nn import Module, init_parameters
from .swin import SwinConfig, SwinEncoder
from .tcm import TCMConfig, TemporalContextModule
from .tensor import Tensor

COMPONENT_ATTRS = {"a": "backbone", "b": "tcm", "c": "encoder",
                   "d": "decoder", "e": "head"}
SEGMENT_BLOCK = 8  # snippets per batched encoder call in segment_snippets


@dataclass
class ModelConfig:
    h: int = 64
    w: int = 64
    t: int = 5
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    tcm: TCMConfig = field(default_factory=TCMConfig)
    swin: SwinConfig = field(default_factory=SwinConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)

    def validate(self):
        """A bad setting is a ValueError whose message starts with its
        attribute path, such as ``t`` or ``backbone.stage_channels``."""
        if self.t % 2 == 0 or self.t < 1:
            raise ValueError(f"t must be odd and positive (the snippet length), got {self.t}")
        for name, size in (("h", self.h), ("w", self.w)):
            if size < 16 or size % 16:
                raise ValueError(f"{name} must be at least 16 and divisible by 16, got {size}")
        for name, check in (("backbone", self.backbone.validate), ("tcm", self.tcm.validate),
                            ("swin", lambda: self.swin.plan(self.grid)),
                            ("decoder", self.decoder.validate)):
            try:
                check()
            except ValueError as exc:
                raise ValueError(f"{name}.{exc}") from None

    @property
    def grid(self) -> tuple[int, int]:
        """Size of the deep backbone feature map that components b and c read."""
        return self.h // 16, self.w // 16

    @property
    def frame_slots(self) -> list[int]:
        """Snippet positions whose backbone features the model reads: every
        frame with the blender, the center alone in bypass."""
        return list(range(self.t)) if self.tcm.enabled else [self.t // 2]

    @property
    def decoder_inputs(self) -> tuple[int, ...]:
        """Input channels of each decoder stage's conv: the stage before
        (for the first, the encoder map plus the temporal skip if on), plus
        the backbone skip at the stage's resolution if skips are on."""
        c1, c2, c3, deep = self.backbone.stage_channels
        dec = self.decoder
        entry = self.swin.plan(self.grid).map_channels + (deep if dec.tsc_enabled else 0)
        skips = (c3, c2, c1, 0) if dec.skips_enabled else (0, 0, 0, 0)
        return tuple(prev + skip for prev, skip in zip((entry, *dec.stage_channels), skips))


class SnippetSegmenter(Module):
    """t grayscale frames in, two-channel center-frame segmentation out.

    ``seed=None`` skips the random init and leaves every parameter zero,
    for callers that load a checkpoint over all of them."""

    def __init__(self, cfg: ModelConfig, seed: int | None = 0):
        super().__init__()
        cfg.validate()
        self.cfg = cfg
        deep_ch = cfg.backbone.stage_channels[3]
        self.backbone = Backbone(cfg.backbone)
        self.tcm = TemporalContextModule(deep_ch, cfg.t, cfg.tcm) \
            if cfg.tcm.enabled else None
        self.encoder = SwinEncoder(deep_ch, cfg.swin, cfg.grid)
        self.decoder = Decoder(cfg.decoder_inputs, cfg.decoder)
        self.head = SegHead(cfg.decoder.stage_channels[-1])
        if seed is not None:
            init_parameters(self, seed)

    def named_parameters(self, prefix: str = ""):
        """Component-letter prefixed names: a.stem.w, c.stages.0..., e.conv2.b."""
        for letter, attr in COMPONENT_ATTRS.items():
            module = getattr(self, attr)
            if module is None:
                continue
            sub = f"{prefix}{letter}" if prefix else letter
            yield from module.named_parameters(sub)

    def slot_frames(self, frames: list) -> list:
        """The items of a ``t``-frame snippet at ``cfg.frame_slots``; another
        frame count is a ValueError."""
        if len(frames) != self.cfg.t:
            raise ValueError(f"expected {self.cfg.t} frames, got {len(frames)}")
        return [frames[i] for i in self.cfg.frame_slots]

    def forward(self, frames: list[Tensor]) -> SegmentationOutput:
        slots = self.slot_frames(frames)
        shapes = {f.shape for f in frames}
        if len(shapes) > 1:
            raise ValueError(f"frames must share one shape, got {sorted(shapes)}")
        return self.forward_features([[self.backbone.forward(f) for f in slots]])[0]

    def forward_features(self, feats: list[list[BackboneOutput]]
                         ) -> list[SegmentationOutput]:
        """Components b-e on a block of snippets, each given as the backbone
        outputs of its ``cfg.frame_slots``; one output per snippet.

        The blender runs per snippet (bypass passes the center's deep
        feature; ``t`` is odd, so the center sits in the middle), one encoder
        call takes the block's blended maps, and the decoder and head run per
        snippet.  Each snippet's GEMMs keep the shapes of a one-snippet
        block, so a snippet's output does not depend on its block."""
        for outs in feats:
            if len(outs) != len(self.cfg.frame_slots):
                raise ValueError(f"expected {len(self.cfg.frame_slots)} backbone outputs, "
                                 f"got {len(outs)}")
        centers = [outs[len(outs) // 2] for outs in feats]
        blended = [self.tcm.forward([o.deep for o in outs]) if self.tcm is not None
                   else center.deep for outs, center in zip(feats, centers)]
        maps = self.encoder.forward(T.concat([b.reshape(1, *b.shape) for b in blended]))
        return [self.head.forward(self.decoder.forward(maps[i], b, (c.s3, c.s2, c.s1)))
                for i, (b, c) in enumerate(zip(blended, centers))]

    def predict(self, frames: list[np.ndarray]) -> np.ndarray:
        """Probability maps [2, H, W] for raw numpy frames, no graph."""
        with T.no_grad():
            return self.forward([Tensor(f) for f in frames]).probs.data

    def segment_snippets(self, snippets: Iterable[Snippet]
                         ) -> Iterator[SegmentationOutput]:
        """No-grad outputs for ``snippets`` in order, each bit-identical to
        ``predict`` on that snippet's frames.

        Snippets are taken ``SEGMENT_BLOCK`` at a time, and no more are read
        from ``snippets`` until a block's outputs are yielded.  Per block,
        the backbone runs on the block's new frames, and one
        ``forward_features`` call then runs components b-e on the block.

        Overlapping windows share frames, so each frame runs through the
        backbone once. Outputs are keyed by the id of the frame's array:
        the same object across the windows of a sequence, a new one for a
        noisy center. The cache holds each array, so its id stays unique,
        and keeps the outputs of the last two windows only: a noisy center
        hides its clean frame for one window, not longer.
        """
        older: dict[int, tuple[np.ndarray, BackboneOutput]] = {}
        recent: dict[int, tuple[np.ndarray, BackboneOutput]] = {}
        snippets = iter(snippets)
        while block := list(itertools.islice(snippets, SEGMENT_BLOCK)):
            feats = []
            with T.no_grad():
                for s in block:
                    images = self.slot_frames(s.frames)
                    window: dict[int, tuple[np.ndarray, BackboneOutput]] = {}
                    for img in images:
                        if id(img) not in window:
                            window[id(img)] = recent.get(id(img)) or older.get(id(img)) \
                                or (img, self.backbone.forward(Tensor(img)))
                    older, recent = recent, window
                    feats.append([window[id(img)][1] for img in images])
                outputs = self.forward_features(feats)
            yield from outputs


def bypass_variant(cfg: ModelConfig) -> ModelConfig:
    """Same architecture with the temporal blender ablated."""
    return replace(cfg, tcm=replace(cfg.tcm, enabled=False))
