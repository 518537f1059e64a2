import numpy as np
import pytest

from vswu import tensor as T
from vswu.backbone import Backbone, BackboneConfig
from vswu.decoder import DecoderConfig
from vswu.model import ModelConfig, SnippetSegmenter
from vswu.nn import init_parameters
from vswu.swin import SwinConfig
from vswu.tensor import Tensor


def make_backbone(channels=(16, 32, 64, 128), blocks=2, seed=0):
    bb = Backbone(BackboneConfig(stage_channels=channels, blocks_per_stage=blocks))
    init_parameters(bb, seed)
    return bb


class TestShapes:
    def test_default_64(self, rng):
        bb = make_backbone()
        out = bb.forward(Tensor(rng.random((1, 64, 64)).astype(np.float32)))
        assert out.s1.shape == (16, 32, 32)
        assert out.s2.shape == (32, 16, 16)
        assert out.s3.shape == (64, 8, 8)
        assert out.deep.shape == (128, 4, 4)

    def test_rejects_indivisible(self, rng):
        bb = make_backbone()
        with pytest.raises(ValueError, match="divisible"):
            bb.forward(Tensor(rng.random((1, 60, 64))))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            BackboneConfig(stage_channels=(16, 16, 64, 128)).validate()
        with pytest.raises(ValueError, match="increasing"):
            BackboneConfig(stage_channels=(32, 16, 64, 128)).validate()


def test_zero_weights_give_zero_outputs(rng):
    bb = make_backbone(channels=(4, 8, 12, 16))
    for _, p in bb.named_parameters():
        p.data = np.zeros_like(p.data)
    out = bb.forward(Tensor(rng.random((1, 32, 32)).astype(np.float32)))
    for feat in (out.s1, out.s2, out.s3, out.deep):
        assert (feat.data == 0).all()


def tiny_segmenter(t):
    cfg = ModelConfig(h=32, w=32, t=t,
                      backbone=BackboneConfig(stage_channels=(4, 8, 12, 16)),
                      swin=SwinConfig(embed_dim=8, depths=(2,), heads=(2,),
                                      window_size=(2,)),
                      decoder=DecoderConfig(stage_channels=(8, 6, 4, 4)))
    return SnippetSegmenter(cfg, seed=0)


def test_weight_sharing_identical_frames(rng):
    bb = make_backbone(channels=(4, 8, 12, 16))
    frame = Tensor(rng.random((1, 32, 32)).astype(np.float32))
    outs = [bb.forward(frame) for _ in range(3)]
    for o in outs[1:]:
        assert (o.deep.data == outs[0].deep.data).all()


def test_param_count_independent_of_t(rng):
    # weight sharing: the same backbone parameter set serves any snippet length
    counts = []
    for t in (3, 7):
        model = tiny_segmenter(t)
        n_before = model.backbone.param_count()
        model.forward([Tensor(rng.random((1, 32, 32)).astype(np.float32))
                       for _ in range(t)])
        assert model.backbone.param_count() == n_before
        counts.append(n_before)
    assert counts[0] == counts[1]


def test_heterogeneous_shapes_rejected(rng):
    model = tiny_segmenter(3)
    frames = [Tensor(rng.random((1, 32, 32))), Tensor(rng.random((1, 64, 64))),
              Tensor(rng.random((1, 32, 32)))]
    with pytest.raises(ValueError, match="share"):
        model.forward(frames)


def test_residual_identity_reduces_to_projection(rng):
    """Zeroing every residual block's second conv leaves only the stride-2
    projection path (ReLU of the 1x1 shortcut after the stem stage)."""
    bb = make_backbone(channels=(4, 8, 12, 16))
    for name, p in bb.named_parameters():
        if ".conv2." in name:
            p.data = np.zeros_like(p.data)
    x = Tensor(rng.random((1, 32, 32)).astype(np.float32))
    s1 = T.relu(bb.stem.forward(x))
    stage1_proj = T.relu(bb.stage1[0].proj.forward(s1))
    out = bb.forward(x)
    np.testing.assert_allclose(out.s2.data, stage1_proj.data, atol=1e-6)


def conv_chain_footprint(layers, lo, hi):
    """Affected output interval for a changed input interval [lo, hi],
    composed through (k, stride, pad) conv layers."""
    for k, s, p in layers:
        lo = max(0, -(-(lo - k + 1 + p) // s))  # ceil
        hi = (hi + p) // s
    return lo, hi


def test_locality_receptive_field_probe(rng):
    """A 3x3 input patch change only affects deep features inside the
    composed receptive-field footprint."""
    bb = make_backbone(channels=(4, 8, 12, 16))
    base = rng.random((1, 64, 64)).astype(np.float32)
    changed = base.copy()
    y0, x0 = 24, 40
    changed[0, y0:y0 + 3, x0:x0 + 3] += 0.5

    out_a = bb.forward(Tensor(base)).deep.data
    out_b = bb.forward(Tensor(changed)).deep.data
    diff = np.abs(out_a - out_b).sum(axis=0) > 1e-7

    # stem + 3 stages; each stage: proj(3,2,1) then conv(3,1,1), plus
    # blocks_per_stage-1 identity blocks with two (3,1,1) convs
    layers = [(3, 2, 1)]
    for _ in range(3):
        layers += [(3, 2, 1), (3, 1, 1)] + [(3, 1, 1)] * 2
    ylo, yhi = conv_chain_footprint(layers, y0, y0 + 2)
    xlo, xhi = conv_chain_footprint(layers, x0, x0 + 2)
    allowed = np.zeros_like(diff)
    allowed[ylo:yhi + 1, xlo:xhi + 1] = True
    assert not diff[~allowed].any(), "difference leaked outside the receptive field"
    assert diff.any(), "probe should change something"
