import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import small_model_config, tiny_model_config
from oracles import reference_gradcam

from vswu import costs
from vswu import tensor as T
from vswu.dataset import Snippet
from vswu.gradcam import gradcam
from vswu.model import ModelConfig, SnippetSegmenter, bypass_variant
from vswu.tensor import Tensor


class TestParamCounting:
    def test_single_linear_by_hand(self):
        assert costs.linear_params(3, 4) == 16

    def test_single_conv_flops_by_hand(self):
        # 3x3 kernel, 1->1 channels, 8x8 output: 2 * 9 * 64
        assert costs.conv_flops(1, 1, 3, 8, 8) == 1152

    @pytest.mark.parametrize("builder,kwargs", [
        (small_model_config, {}),
        (small_model_config, {"h": 128, "w": 128}),
        (tiny_model_config, {}),
        (small_model_config, {"tied_neighbors": True}),
        (small_model_config, {"include_center": False}),
        (small_model_config, {"merge": True, "window_size": (4, 2)}),
        (small_model_config, {"merge": False}),
        (small_model_config, {"h": 128, "w": 128, "merge": True}),
        (small_model_config, {"h": 128, "w": 128, "merge": False}),
    ])
    def test_analytic_equals_runtime_enumeration(self, builder, kwargs):
        kwargs = dict(kwargs)
        merge = kwargs.pop("merge", "auto")
        window_size = kwargs.pop("window_size", None)
        cfg = builder(**kwargs)
        cfg.swin.merge_between_stages = merge
        if window_size is not None:
            cfg.swin.window_size = window_size
        model = SnippetSegmenter(cfg, seed=0)
        analytic, _ = costs.count_params_flops(model)
        assert analytic == model.param_count()

    def test_bypass_variants_counted_exactly(self):
        cfg = bypass_variant(small_model_config())
        model = SnippetSegmenter(cfg, seed=0)
        analytic, _ = costs.count_params_flops(model)
        assert analytic == model.param_count()

    def test_toggle_variants_counted_exactly(self):
        for tsc in (True, False):
            for skips in (True, False):
                cfg = small_model_config()
                cfg.decoder.tsc_enabled = tsc
                cfg.decoder.skips_enabled = skips
                model = SnippetSegmenter(cfg, seed=0)
                analytic, _ = costs.count_params_flops(model)
                assert analytic == model.param_count()

    def test_bypass_has_fewer_params_than_blended(self):
        full = SnippetSegmenter(small_model_config(), seed=0)
        bypass = SnippetSegmenter(bypass_variant(small_model_config()), seed=0)
        assert bypass.param_count() < full.param_count()


class TestAttentionScaling:
    def test_windowed_grows_linearly(self):
        f64 = costs.window_attention_flops(64, 4, 32, 2)
        f256 = costs.window_attention_flops(256, 4, 32, 2)
        f1024 = costs.window_attention_flops(1024, 4, 32, 2)
        assert f256 == 4 * f64
        assert f1024 == 4 * f256

    def test_dense_grows_quadratically(self):
        d64 = costs.dense_attention_flops(64, 32, 2)
        d256 = costs.dense_attention_flops(256, 32, 2)
        d1024 = costs.dense_attention_flops(1024, 32, 2)
        # quadratic term dominates: each 4x token step costs well over the
        # windowed path's 4x and approaches 16x
        assert d256 / d64 > 8
        assert d1024 / d256 > 12
        windowed_ratio = (costs.window_attention_flops(1024, 4, 32, 2)
                          / costs.window_attention_flops(64, 4, 32, 2))
        dense_ratio = d1024 / d64
        assert dense_ratio > 2 * windowed_ratio

    def test_tcm_flops_scale_with_active_slots(self):
        cfg5 = small_model_config(t=5)
        cfg3 = small_model_config(t=3)
        _, f5 = costs.count_params_flops(SnippetSegmenter(cfg5, seed=0))
        _, f3 = costs.count_params_flops(SnippetSegmenter(cfg3, seed=0))
        assert f5 > f3


def snippet_from(frames_np, label):
    return Snippet(frames=list(frames_np), label=label, sequence="s", center_index=1)


class TestGradcam:
    def make_inputs(self, rng, cfg):
        frames = [rng.random((1, cfg.h, cfg.w)).astype(np.float32)
                  for _ in range(cfg.t)]
        label = (rng.random((2, cfg.h, cfg.w)) > 0.5).astype(np.float32)
        return snippet_from(frames, label)

    def test_shape_and_range(self, rng):
        cfg = small_model_config()
        model = SnippetSegmenter(cfg, seed=7)
        cam = gradcam(model, self.make_inputs(rng, cfg), 0)
        assert cam.shape == (cfg.h // 16, cfg.w // 16)
        assert cam.min() >= 0.0 and cam.max() <= 1.0

    def test_invalid_channel(self, rng):
        cfg = tiny_model_config()
        model = SnippetSegmenter(cfg, seed=7)
        with pytest.raises(ValueError, match="channel"):
            gradcam(model, self.make_inputs(rng, cfg), 2)

    def test_linear_probe_argmax_alignment(self, rng):
        """A head that reads one deep-feature channel with positive weight
        puts the heatmap peak at that channel's activation peak."""
        cfg = small_model_config()
        cfg.decoder.tsc_enabled = True
        model = SnippetSegmenter(cfg, seed=8)
        # zero the decoder so the logit path flows only through the TSC
        # concat channels, then give channel 0 of the head's first conv a
        # positive weight on the TSC copy of deep channel 3
        for name, p in model.named_parameters():
            if name.startswith(("d.", "e.")):
                p.data = np.zeros_like(p.data)
        # decoder entry: [token_map(D'), tsc(deep)]; stage convs then head.
        # Use identity-ish plumbing: first decoder conv passes tsc channel 3
        # through to output channel 0, later convs pass channel 0 along.
        enc_ch = model.encoder.plan.map_channels
        model.decoder.convs[0].w.data[0, enc_ch + 3, 1, 1] = 1.0
        for conv in model.decoder.convs[1:]:
            conv.w.data[0, 0, 1, 1] = 1.0
        model.head.conv1.w.data[0, 0, 1, 1] = 1.0
        model.head.conv2.w.data[0, 0, 0, 0] = 1.0

        snippet = self.make_inputs(rng, cfg)
        cam = gradcam(model, snippet, 0)
        outs = [model.backbone.forward(Tensor(f)) for f in snippet.frames]
        deep = outs[cfg.t // 2].deep.data
        blended = model.tcm.forward([o.deep for o in outs]).data
        cam_peak = np.unravel_index(cam.argmax(), cam.shape)
        act_peak = np.unravel_index(blended[3].argmax(), blended[3].shape)
        assert cam_peak == act_peak
        assert deep.shape[1:] == cam.shape

    @pytest.mark.parametrize("channel", [0, 1])
    def test_matches_finite_difference_cam(self, rng, channel):
        """The CAM rebuilt from central differences of the same target with
        respect to the center frame's deep feature."""
        with T.precision("float64"):
            cfg = tiny_model_config(h=64, w=64)
            model = SnippetSegmenter(cfg, seed=12)
            for i, slot in enumerate(model.tcm.slots):  # open the gates
                slot.gate.data = np.array([0.2 + 0.1 * i])
            frames = [rng.random((1, cfg.h, cfg.w)) for _ in range(cfg.t)]
            snippet = snippet_from(frames, np.zeros((2, cfg.h, cfg.w)))
            cam = gradcam(model, snippet, channel)

            with T.no_grad():
                outs = [model.backbone.forward(Tensor(f)) for f in frames]
                deep = outs[1].deep.data

                def logits(d):
                    trial = [outs[0], replace(outs[1], deep=Tensor(d)), outs[2]]
                    return model.forward_features([trial])[0].logits.data[channel]

                base = logits(deep)
                region = 1.0 / (1.0 + np.exp(-base)) >= 0.5
                if not region.any():
                    region = np.ones_like(region)
                weights = region / region.sum()
                grad = np.zeros_like(deep)
                h = 1e-5
                for idx in np.ndindex(deep.shape):
                    bump = deep.copy()
                    bump[idx] += h
                    plus = (logits(bump) * weights).sum()
                    bump[idx] -= 2 * h
                    grad[idx] = (plus - (logits(bump) * weights).sum()) / (2 * h)
        want = np.maximum((grad.mean(axis=(1, 2))[:, None, None] * deep).sum(axis=0), 0.0)
        assert want.max() > want.min()
        want = (want - want.min()) / (want.max() - want.min())
        assert cam.shape == want.shape == (cfg.h // 16, cfg.w // 16)
        assert np.max(np.abs(cam - want)) <= 1e-6

    @pytest.mark.parametrize("bypass", [False, True])
    def test_equals_full_graph_reference_and_spares_backbone(self, rng, bypass):
        """Stopping the reverse pass at the blender and the decoder skips
        gives the heatmaps of a pass through every backbone, byte for byte,
        and leaves no gradient on any parameter."""
        cfg = ModelConfig()
        model = SnippetSegmenter(bypass_variant(cfg) if bypass else cfg, seed=3)
        for slot in [] if bypass else model.tcm.slots:  # open the gates
            slot.gate.data = rng.uniform(0.25, 0.75, size=1).astype(np.float32)
        params = dict(model.named_parameters())
        for _ in range(2):
            snippet = self.make_inputs(rng, model.cfg)
            for channel in (0, 1):
                for p in params.values():
                    p.grad = None
                cam = gradcam(model, snippet, channel)
                assert not [n for n, p in params.items() if p.grad is not None]
                want = reference_gradcam(model, snippet, channel)
                assert cam.dtype == want.dtype and cam.tobytes() == want.tobytes()

    def test_all_zero_map_stays_zero(self, rng):
        cfg = tiny_model_config()
        model = SnippetSegmenter(cfg, seed=9)
        # zero backbone: deep feature is zero, cam must stay zero
        for name, p in model.named_parameters():
            if name.startswith("a."):
                p.data = np.zeros_like(p.data)
        cam = gradcam(model, self.make_inputs(rng, cfg), 1)
        assert (cam == 0).all()


def _default_with(**changes):
    cfg = ModelConfig()
    for path, value in changes.items():
        section, key = path.split("__")
        setattr(getattr(cfg, section), key, value)
    return cfg


def _small_with(h=64, w=64, **swin):
    cfg = small_model_config(h=h, w=w)
    for key, value in swin.items():
        setattr(cfg.swin, key, value)
    return cfg


@pytest.mark.parametrize("make_cfg", [
    ModelConfig,
    lambda: bypass_variant(ModelConfig()),
    lambda: _default_with(tcm__tied_neighbors=True, tcm__include_center=False),
    lambda: _default_with(decoder__tsc_enabled=False, decoder__skips_enabled=False),
    lambda: ModelConfig(t=3),
    lambda: _small_with(h=128, w=128),
    lambda: _small_with(merge_between_stages=True, window_size=(4, 2)),
    lambda: _small_with(h=128, w=128, patch_size=2),
], ids=["default", "bypass", "tied-no-center", "no-tsc-skips", "t3", "merges-128",
        "forced-merge-64", "patch2-128"])
def test_analytic_flops_equal_one_recorded_forward(monkeypatch, rng, make_cfg):
    """Every conv2d and matmul a recording forward runs, counted from its
    operand shapes, adds up to the analytic forward FLOPs."""
    cfg = make_cfg()
    model = SnippetSegmenter(cfg, seed=0)
    counted = []
    conv2d, matmul = T.conv2d, T.matmul

    def counting_conv2d(x, k, *args, **kwargs):
        out = conv2d(x, k, *args, **kwargs)
        counted.append(2 * math.prod(out.shape) * math.prod(k.shape[1:]))
        return out

    def counting_matmul(a, b):
        out = matmul(a, b)
        counted.append(2 * math.prod(out.shape) * a.shape[-1])
        return out

    monkeypatch.setattr(T, "conv2d", counting_conv2d)
    monkeypatch.setattr(T, "matmul", counting_matmul)
    model.forward([Tensor(rng.random((1, cfg.h, cfg.w)).astype(np.float32))
                   for _ in range(cfg.t)])
    assert sum(counted) == costs.count_params_flops(model)[1]
