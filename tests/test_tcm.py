import numpy as np
import pytest

from vswu import tensor as T
from vswu.nn import init_parameters
from vswu.tcm import TCMConfig, TemporalContextModule
from vswu.tensor import Tensor, backward, finite_diff_check


def make_tcm(channels=6, t=3, seed=0, **kw):
    mod = TemporalContextModule(channels, t, TCMConfig(**kw))
    init_parameters(mod, seed)
    return mod


class TestGlobalContext:
    def test_constant_feature_uniform_attention(self, rng):
        mod = make_tcm(channels=4, t=3, seed=2)
        v = rng.normal(size=4).astype(np.float32)
        x = Tensor(np.broadcast_to(v[:, None, None], (4, 5, 5)).copy())
        _, ctx = mod.pool(x, 0)
        # uniform attention over a constant map pools to the embedded vector
        emb_v = mod.embed.forward(Tensor(v.reshape(4, 1, 1))).data.reshape(4)
        np.testing.assert_allclose(ctx.data, emb_v, atol=1e-5)

    def test_attention_weights_sum_to_one(self, rng):
        mod = make_tcm(channels=4, t=3)
        x = Tensor(rng.normal(size=(4, 6, 6)).astype(np.float32))
        logits = mod.slots[1].key.forward(x).reshape(1, -1)
        xhat = T.softmax(logits, axis=-1)
        assert abs(float(xhat.data.sum()) - 1.0) <= 1e-6

    def test_saturated_softmax_selects_position(self, rng):
        # key weights that put a +100 logit on one position: the context
        # collapses to that position's embedded feature
        mod = make_tcm(channels=3, t=1, seed=5)
        key = mod.slots[0].key
        key.w.data = np.zeros_like(key.w.data)
        key.b.data = np.zeros_like(key.b.data)
        key.w.data[0, 0, 0, 0] = 100.0  # logit = 100 * channel-0 value
        x = rng.normal(size=(3, 4, 4)).astype(np.float32)
        x[0] = 0.0
        x[0, 1, 2] = 1.0
        _, ctx = mod.pool(Tensor(x), 0)
        emb = mod.embed.forward(Tensor(x)).data
        np.testing.assert_allclose(ctx.data, emb[:, 1, 2], atol=1e-4)

    def test_degenerate_single_position(self, rng):
        mod = make_tcm(channels=1, t=1, seed=1)
        x = Tensor(rng.normal(size=(1, 1, 1)).astype(np.float32))
        _, ctx = mod.pool(x, 0)
        emb = mod.embed.forward(x).data.reshape(-1)
        np.testing.assert_allclose(ctx.data, emb, atol=1e-6)

    def test_slot_out_of_range(self, rng):
        mod = make_tcm(channels=2, t=3)
        with pytest.raises(ValueError, match="slot"):
            mod.pool(Tensor(rng.normal(size=(2, 2, 2))), 5)


class TestBlend:
    def test_zero_gates_reproduce_center_exactly(self, rng):
        mod = make_tcm(channels=6, t=5, seed=3)  # gates init to zero
        feats = [Tensor(rng.normal(size=(6, 3, 3)).astype(np.float32)) for _ in range(5)]
        out = mod.forward(feats)
        assert (out.data == feats[2].data).all()

    def test_t1_identity_weights_hand_formula(self):
        """With identity embed, identity transform and unit gate the blend
        is 2*x + broadcast(context) on a 1x2x2 feature."""
        mod = make_tcm(channels=1, t=1, reduction=1)
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32)

        slot = mod.slots[0]
        mod.embed.w.data = np.ones_like(mod.embed.w.data)   # identity 1x1 conv (C=1)
        mod.embed.b.data = np.zeros_like(mod.embed.b.data)
        slot.gate.data = np.ones_like(slot.gate.data)
        # transform stack: squeeze/expand identity; LN(1) collapses to beta,
        # choose beta so the ReLU passes the squeezed value through
        slot.squeeze.w.data = np.ones_like(slot.squeeze.w.data)
        slot.squeeze.b.data = np.zeros_like(slot.squeeze.b.data)
        slot.expand.w.data = np.ones_like(slot.expand.w.data)
        slot.expand.b.data = np.zeros_like(slot.expand.b.data)
        key = slot.key
        key.w.data = np.zeros_like(key.w.data)
        key.b.data = np.zeros_like(key.b.data)

        out = mod.forward([Tensor(x.copy())])
        # uniform attention -> context = mean = 2.5; LN(single value) -> 0,
        # ReLU(0) = 0, expand -> 0, so the transform contributes nothing and
        # g = emb(x) + 0 = x; blended = x + 1 * x = 2x... context enters via
        # the transform, which a single-channel LN zeroes here.
        np.testing.assert_allclose(out.data, 2.0 * x, atol=1e-5)

        # with LN bypassed through beta = context the additive term appears
        ctx = float(x.mean())
        slot.norm.beta.data = np.full_like(slot.norm.beta.data, ctx)
        out2 = mod.forward([Tensor(x.copy())])
        np.testing.assert_allclose(out2.data, 2.0 * x + ctx, atol=1e-4)

    def test_output_shape_matches_center(self, rng):
        mod = make_tcm(channels=8, t=5, seed=4)
        feats = [Tensor(rng.normal(size=(8, 4, 4)).astype(np.float32)) for _ in range(5)]
        out = mod.forward(feats)
        assert out.shape == (8, 4, 4)

    def test_shape_mismatch_rejected(self, rng):
        mod = make_tcm(channels=4, t=3)
        feats = [Tensor(rng.normal(size=(4, 3, 3))), Tensor(rng.normal(size=(4, 3, 3))),
                 Tensor(rng.normal(size=(4, 2, 2)))]
        with pytest.raises(ValueError, match="share"):
            mod.forward(feats)

    def test_even_t_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            TemporalContextModule(4, 4)

    @pytest.mark.parametrize("reduction", [0, -2])
    def test_invalid_config_rejected(self, reduction):
        with pytest.raises(ValueError, match="^reduction must be a positive int"):
            TemporalContextModule(4, 3, TCMConfig(reduction=reduction))


class TestWeightStructure:
    def test_gates_initialize_to_zero(self):
        mod = make_tcm(channels=4, t=5, seed=11)
        for i in range(5):
            assert (mod.slots[i].gate.data == 0).all()

    def test_tied_neighbors_share_parameters(self):
        mod = make_tcm(channels=4, t=5, tied_neighbors=True)
        outers = {id(mod.slots[i]) for i in (0, 1, 3, 4)}
        assert len(outers) == 1
        assert id(mod.slots[2]) not in outers

    def test_tied_neighbor_permutation_invariance(self, rng):
        mod = make_tcm(channels=4, t=5, seed=6, tied_neighbors=True)
        for i in range(5):
            mod.slots[i].gate.data = np.array([0.7], dtype=np.float32)
        feats = [rng.normal(size=(4, 3, 3)).astype(np.float32) for _ in range(5)]
        base = mod.forward([Tensor(f.copy()) for f in feats]).data
        permuted = [feats[3], feats[0], feats[2], feats[4], feats[1]]
        swapped = mod.forward([Tensor(f.copy()) for f in permuted]).data
        np.testing.assert_allclose(base, swapped, atol=1e-6)

    def test_untied_has_more_parameters_than_tied(self):
        untied = make_tcm(channels=8, t=5)
        tied = make_tcm(channels=8, t=5, tied_neighbors=True)
        assert untied.param_count() > tied.param_count()

    def test_include_center_flag_changes_active_slots(self):
        with_center = make_tcm(channels=4, t=3, include_center=True)
        without = make_tcm(channels=4, t=3, include_center=False)
        assert with_center.cfg.active_slots(with_center.t) == [0, 1, 2]
        assert without.cfg.active_slots(without.t) == [0, 2]


def test_blend_full_differentiability(rng):
    with T.precision("float64"):
        mod = make_tcm(channels=4, t=3, seed=8)
        for i in range(3):
            mod.slots[i].gate.data = np.array([0.3 + 0.1 * i])
        others = [Tensor(rng.normal(size=(4, 3, 3))) for _ in range(2)]

        def f(t):
            out = mod.forward([others[0], t, others[1]])
            return (out * out).sum()

        err = finite_diff_check(f, Tensor(rng.normal(size=(4, 3, 3))))
    assert err <= 1e-4


def test_gradient_flows_to_neighbours_when_gated(rng):
    mod = make_tcm(channels=4, t=3, seed=9)
    for i in range(3):
        mod.slots[i].gate.data = np.array([0.5], dtype=np.float32)
    feats = [Tensor(rng.normal(size=(4, 3, 3)).astype(np.float32), requires_grad=True)
             for _ in range(3)]
    out = mod.forward(feats)
    backward((out * out).sum())
    assert feats[0].grad is not None and np.abs(feats[0].grad).max() > 0
    assert feats[2].grad is not None and np.abs(feats[2].grad).max() > 0
