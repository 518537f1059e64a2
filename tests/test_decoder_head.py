import numpy as np
import pytest

from conftest import small_model_config

from vswu import tensor as T
from vswu.decoder import Decoder, DecoderConfig, SegHead
from vswu.model import SnippetSegmenter
from vswu.nn import init_parameters
from vswu.losses import combined_loss
from vswu.tensor import Tensor, finite_diff_check


def _zeros(*shape):
    return Tensor(np.zeros(shape, np.float32))


def stage_inputs(in_ch, tsc_ch, skips, cfg):
    """Each stage conv's input width for a token map of ``in_ch`` channels."""
    entry = in_ch + (tsc_ch if cfg.tsc_enabled else 0)
    skips = (*skips, 0) if cfg.skips_enabled else (0, 0, 0, 0)
    return [prev + s for prev, s in zip((entry, *cfg.stage_channels), skips)]


def make_decoder(in_ch=8, tsc_ch=8, skips=(6, 4, 2),
                 channels=(16, 12, 8, 8), **kw):
    cfg = DecoderConfig(stage_channels=channels, **kw)
    dec = Decoder(stage_inputs(in_ch, tsc_ch, skips, cfg), cfg)
    init_parameters(dec, 0)
    return dec


class TestDecoder:
    def test_stage_shapes_default_geometry(self, rng):
        """At 64x64 input the four stages emit 1/8, 1/4, 1/2, 1/1 maps."""
        dec = Decoder(stage_inputs(64, 128, (64, 32, 16), DecoderConfig()), DecoderConfig())
        init_parameters(dec, 1)
        token_map = Tensor(rng.normal(size=(64, 4, 4)).astype(np.float32))
        tsc = Tensor(rng.normal(size=(128, 4, 4)).astype(np.float32))
        skips = (Tensor(rng.normal(size=(64, 8, 8)).astype(np.float32)),
                 Tensor(rng.normal(size=(32, 16, 16)).astype(np.float32)),
                 Tensor(rng.normal(size=(16, 32, 32)).astype(np.float32)))
        shapes = []
        x = T.concat([token_map, tsc], axis=0)
        skip_list = list(skips) + [None]
        for i, conv in enumerate(dec.convs):
            x = T.upsample2x(x)
            if skip_list[i] is not None:
                x = T.concat([x, skip_list[i]], axis=0)
            x = T.relu(conv.forward(x))
            shapes.append(x.shape)
        assert shapes == [(128, 8, 8), (64, 16, 16), (32, 32, 32), (16, 64, 64)]
        out = dec.forward(token_map, tsc, skips)
        assert out.shape == (16, 64, 64)

    def test_disabled_toggles_still_reach_full_resolution(self, rng):
        dec = make_decoder(tsc_enabled=False, skips_enabled=False)
        out = dec.forward(Tensor(rng.normal(size=(8, 2, 2)).astype(np.float32)),
                          None, None)
        assert out.shape == (8, 32, 32)

    def test_zero_everything_gives_zero(self):
        dec = make_decoder()
        for _, p in dec.named_parameters():
            p.data = np.zeros_like(p.data)
        out = dec.forward(_zeros(8, 2, 2), _zeros(8, 2, 2),
                          (_zeros(6, 4, 4), _zeros(4, 8, 8), _zeros(2, 16, 16)))
        assert (out.data == 0).all()

    def test_skip_resolution_mismatch_rejected(self, rng):
        dec = make_decoder()
        with pytest.raises(ValueError, match="resolution"):
            dec.forward(Tensor(rng.normal(size=(8, 2, 2))),
                        Tensor(rng.normal(size=(8, 2, 2))),
                        (_zeros(6, 8, 8), _zeros(4, 8, 8), _zeros(2, 16, 16)))


class TestSegHead:
    def test_zero_weights_give_half_probability(self):
        head = SegHead(4)
        for _, p in head.named_parameters():
            p.data = np.zeros_like(p.data)
        out = head.forward(_zeros(4, 8, 8))
        np.testing.assert_allclose(out.probs.data, np.full((2, 8, 8), 0.5))

    def test_saturated_biases(self):
        head = SegHead(4)
        for _, p in head.named_parameters():
            p.data = np.zeros_like(p.data)
        head.conv2.b.data = np.array([10.0, -10.0], dtype=np.float32)
        out = head.forward(_zeros(4, 8, 8))
        np.testing.assert_allclose(out.probs.data[0], np.ones((8, 8)), atol=1e-4)
        np.testing.assert_allclose(out.probs.data[1], np.zeros((8, 8)), atol=1e-4)

    def test_output_shape_and_range(self, rng):
        head = SegHead(6)
        init_parameters(head, 2)
        out = head.forward(Tensor(rng.normal(size=(6, 16, 16)).astype(np.float32)))
        assert out.probs.shape == (2, 16, 16)
        assert (out.probs.data > 0).all() and (out.probs.data < 1).all()


class TestEndToEndShapes:
    @pytest.mark.parametrize("h,w,t", [(64, 64, 3), (64, 64, 5), (64, 128, 3),
                                       (128, 128, 3), (64, 64, 7)])
    def test_model_emits_two_channel_input_resolution(self, rng, h, w, t):
        model = SnippetSegmenter(small_model_config(h=h, w=w, t=t), seed=5)
        frames = [Tensor(rng.random((1, h, w)).astype(np.float32)) for _ in range(t)]
        out = model.forward(frames)
        assert out.probs.shape == (2, h, w)
        assert out.logits.shape == (2, h, w)

    def test_tsc_disabled_matches_model_built_without(self, rng):
        """The toggle reproduces a fresh no-TSC model bit for bit: per-name
        seeding makes shared parameters identical."""
        cfg_a = small_model_config()
        cfg_a.decoder.tsc_enabled = False
        cfg_b = small_model_config()
        cfg_b.decoder.tsc_enabled = False
        m1 = SnippetSegmenter(cfg_a, seed=9)
        m2 = SnippetSegmenter(cfg_b, seed=9)
        frames = [Tensor(rng.random((1, 64, 64)).astype(np.float32)) for _ in range(3)]
        o1 = m1.forward(frames)
        o2 = m2.forward(frames)
        assert (o1.probs.data == o2.probs.data).all()

    def test_tsc_toggle_shares_all_other_parameters(self):
        cfg_on = small_model_config()
        cfg_off = small_model_config()
        cfg_off.decoder.tsc_enabled = False
        m_on = dict(SnippetSegmenter(cfg_on, seed=9).named_parameters())
        m_off = dict(SnippetSegmenter(cfg_off, seed=9).named_parameters())
        assert set(m_on) == set(m_off)
        for name in m_on:
            if name == "d.convs.0.w":  # entry conv widens with the TSC concat
                assert m_on[name].shape != m_off[name].shape
            else:
                assert (m_on[name].data == m_off[name].data).all(), name


def test_decoder_head_finite_diff(rng):
    with T.precision("float64"):
        dec = make_decoder(in_ch=4, tsc_ch=4, skips=(3, 2, 2), channels=(6, 5, 4, 4))
        head = SegHead(4)
        init_parameters(head, 3)
        tsc = Tensor(rng.normal(size=(4, 2, 2)))
        skips = (Tensor(rng.normal(size=(3, 4, 4))), Tensor(rng.normal(size=(2, 8, 8))),
                 Tensor(rng.normal(size=(2, 16, 16))))
        label = (rng.random((2, 32, 32)) > 0.5).astype(np.float64)

        def f(t):
            out = head.forward(dec.forward(t, tsc, skips))
            return combined_loss(out.probs, label)

        err = finite_diff_check(f, Tensor(rng.normal(size=(4, 2, 2))))
    assert err <= 1e-4
