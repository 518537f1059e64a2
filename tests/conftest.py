import tracemalloc

import numpy as np
import pytest

from vswu.backbone import BackboneConfig
from vswu.decoder import DecoderConfig
from vswu.model import ModelConfig
from vswu.swin import SwinConfig
from vswu.tcm import TCMConfig


def tiny_model_config(h=16, w=16, t=3, **tcm_kwargs) -> ModelConfig:
    """Smallest full pipeline: 16x16 frames, 1x1 token grid, M=1 windows."""
    return ModelConfig(
        h=h, w=w, t=t,
        backbone=BackboneConfig(stage_channels=(2, 4, 6, 8), blocks_per_stage=2),
        tcm=TCMConfig(**tcm_kwargs),
        swin=SwinConfig(embed_dim=8, depths=(2,), heads=(2,), window_size=(1,)),
        decoder=DecoderConfig(stage_channels=(8, 6, 4, 4)))


def small_model_config(h=64, w=64, t=3, **tcm_kwargs) -> ModelConfig:
    """Small but realistically windowed pipeline: 4x4 grid, M=4."""
    return ModelConfig(
        h=h, w=w, t=t,
        backbone=BackboneConfig(stage_channels=(4, 8, 12, 16), blocks_per_stage=2),
        tcm=TCMConfig(**tcm_kwargs),
        swin=SwinConfig(embed_dim=16, depths=(2, 2), heads=(2, 2), window_size=(4, 4)),
        decoder=DecoderConfig(stage_channels=(16, 12, 8, 8)))


def smoke_model_config(h=64, w=64, t=5) -> ModelConfig:
    """The configuration used by the end-to-end training criteria."""
    return ModelConfig(
        h=h, w=w, t=t,
        backbone=BackboneConfig(stage_channels=(8, 16, 32, 64), blocks_per_stage=2),
        swin=SwinConfig(embed_dim=32, depths=(2, 2), heads=(2, 2), window_size=(4, 4)),
        decoder=DecoderConfig(stage_channels=(64, 32, 16, 8)))


def held_bytes(fn):
    """``fn()``, the bytes it allocated that are still held when it returns
    (its result included) and the most it held at once, traced with
    tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
        return out, held - base, peak - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
