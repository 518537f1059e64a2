import math

import numpy as np
import pytest

from oracles import reference_adam_step
from vswu import tensor as T
from vswu.losses import bce_loss, combined_loss, dice_loss
from vswu.nn import Parameter
from vswu.optim import Adam, PlateauScheduler
from vswu.tensor import Tensor


class TestCombinedLoss:
    def test_perfect_prediction_near_zero(self):
        y = np.zeros((2, 64, 64), dtype=np.float32)
        y[0, 10:30, 10:30] = 1.0
        y[1, 20:50, 20:50] = 1.0
        loss = combined_loss(Tensor(y.copy()), y)
        assert 0.0 <= float(loss.data) < 1e-3

    def test_empty_channel_all_zero_prediction_zero_dice(self):
        y = np.zeros((8, 8), dtype=np.float32)
        d = dice_loss(Tensor(np.zeros((8, 8), np.float32)), y)
        assert float(d.data) == 0.0

    def test_uniform_half_gives_ln2_bce(self, rng):
        y = (rng.random((16, 16)) > 0.5).astype(np.float32)
        b = bce_loss(Tensor(np.full((16, 16), 0.5, np.float32)), y)
        assert abs(float(b.data) - math.log(2.0)) <= 1e-6

    def test_loss_nonnegative(self, rng):
        for _ in range(10):
            p = Tensor(rng.random((2, 8, 8)).astype(np.float32))
            y = (rng.random((2, 8, 8)) > 0.5).astype(np.float32)
            assert float(combined_loss(p, y).data) >= 0.0

    def test_formula_matches_hand_computation(self, rng):
        p = rng.random((2, 4, 4))
        y = (rng.random((2, 4, 4)) > 0.5).astype(np.float64)
        total = 0.0
        for c in range(2):
            pc = np.clip(p[c], 1e-7, 1 - 1e-7)
            bce = -(y[c] * np.log(pc) + (1 - y[c]) * np.log(1 - pc)).mean()
            dice = 1 - (2 * (p[c] * y[c]).sum() + 1.0) / (p[c].sum() + y[c].sum() + 1.0)
            total += 0.5 * bce + 0.5 * dice
        expected = total / 2
        got = float(combined_loss(Tensor(p), y).data)
        assert abs(got - expected) <= 1e-6

    def test_non_binary_label_rejected(self, rng):
        p = Tensor(rng.random((2, 4, 4)))
        with pytest.raises(ValueError, match="0 or 1"):
            combined_loss(p, np.full((2, 4, 4), 0.5))

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            combined_loss(Tensor(rng.random((2, 4, 4))), np.zeros((2, 8, 8)))


class TestAdam:
    def make_param(self, values):
        p = Parameter((len(values),))
        p.data = np.array(values, dtype=np.float32)
        return p

    def test_zero_gradient_fixed_point(self):
        p = self.make_param([1.0, -2.0])
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.zeros(2, dtype=np.float32)
        before = p.data.copy()
        opt.step()
        np.testing.assert_array_equal(p.data, before)
        # moments decay toward zero but stay allocated
        assert (opt.m["p"] == 0).all()

    def test_first_step_is_signed_lr(self):
        # step 1: delta = -lr * g / (|g| + eps) for constant gradient g
        p = self.make_param([0.0])
        opt = Adam({"p": p}, lr=1e-3)
        p.grad = np.array([7.5], dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(p.data, [-1e-3], atol=1e-9)

    def test_first_step_scale_invariance(self):
        p1 = self.make_param([0.0])
        p2 = self.make_param([0.0])
        opt = Adam({"a": p1, "b": p2}, lr=1e-2)
        p1.grad = np.array([0.3], dtype=np.float32)
        p2.grad = np.array([0.6], dtype=np.float32)
        opt.step()
        assert abs(float(p1.data[0]) - float(p2.data[0])) <= 1e-6

    def test_shape_mismatch_rejected(self):
        p = self.make_param([1.0, 2.0])
        opt = Adam({"p": p})
        p.grad = np.zeros(3, dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            opt.step()

    def test_frozen_params_excluded(self):
        p = self.make_param([1.0])
        q = self.make_param([1.0])
        q.requires_grad = False
        opt = Adam({"p": p, "q": q})
        assert "q" not in opt.params and "q" not in opt.m

    def test_in_place_step_matches_formula_bit_for_bit(self, rng):
        """Three steps on the default model's parameter shapes, one with a
        missing gradient: data, m and v equal the out-of-place formula and
        keep their arrays."""
        from vswu.model import ModelConfig, SnippetSegmenter

        params = dict(SnippetSegmenter(ModelConfig(), seed=0).named_parameters())
        opt = Adam(params, lr=3e-3)
        arrays = {n: (p.data, opt.m[n], opt.v[n]) for n, p in params.items()}
        ref = {n: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
               for n, p in params.items()}
        for step in (1, 2, 3):
            for i, (n, p) in enumerate(params.items()):
                p.grad = None if (step == 2 and i % 7 == 0) else \
                    (rng.normal(size=p.shape) * 10.0 ** (i % 5 - 3)).astype(np.float32)
                g = p.grad if p.grad is not None else np.zeros_like(p.data)
                ref[n] = reference_adam_step(*ref[n][:1], g, *ref[n][1:], step, 3e-3)
            opt.step()
        for n, p in params.items():
            for got, want in zip((p.data, opt.m[n], opt.v[n]), ref[n]):
                assert np.array_equal(got, want), n
            assert all(a is b for a, b in zip((p.data, opt.m[n], opt.v[n]), arrays[n]))

    def test_float64_parameters_match_formula_bit_for_bit(self, rng):
        """Parameters of both dtypes in one optimizer: each steps in scratch
        of its own dtype and equals the out-of-place formula."""
        with T.precision("float64"):
            params = {"a": Parameter((3, 4)), "b": Parameter((17,))}
        params["c"] = Parameter((2, 3, 5))
        ref = {}
        for n, p in params.items():
            p.data = rng.normal(size=p.shape).astype(p.dtype)
            ref[n] = (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
        opt = Adam(params, lr=3e-3)
        for step in (1, 2):
            for n, p in params.items():
                p.grad = rng.normal(size=p.shape).astype(p.dtype)
                ref[n] = reference_adam_step(*ref[n][:1], p.grad, *ref[n][1:], step, 3e-3)
            opt.step()
        assert {p.dtype for p in params.values()} == {np.dtype(np.float32),
                                                      np.dtype(np.float64)}
        for n, p in params.items():
            for got, want in zip((p.data, opt.m[n], opt.v[n]), ref[n]):
                assert got.dtype == want.dtype and np.array_equal(got, want), n

    def test_lr_zero_changes_nothing(self, rng):
        p = self.make_param(rng.normal(size=4))
        before = p.data.copy()
        opt = Adam({"p": p}, lr=0.0)
        p.grad = rng.normal(size=4).astype(np.float32)
        opt.step()
        np.testing.assert_array_equal(p.data, before)


class TestPlateauScheduler:
    def test_twenty_stagnant_epochs_decay(self):
        s = PlateauScheduler(1e-3, patience=20, factor=0.8)
        s.step(1.0)  # improvement over inf
        for _ in range(19):
            assert s.step(1.0) == 1e-3
        assert s.step(1.0) == pytest.approx(8e-4)

    def test_improvement_resets_counter(self):
        s = PlateauScheduler(1e-3, patience=20, factor=0.8)
        s.step(1.0)
        for _ in range(19):
            s.step(1.0)
        s.step(0.5)  # improvement at the brink
        for _ in range(19):
            assert s.step(0.5) == 1e-3
        assert s.step(0.5) == pytest.approx(8e-4)

    def test_forty_stagnant_epochs_two_decays(self):
        s = PlateauScheduler(1e-3, patience=20, factor=0.8)
        s.step(1.0)
        lrs = [s.step(1.0) for _ in range(40)]
        assert lrs[19] == pytest.approx(8e-4)
        assert lrs[39] == pytest.approx(6.4e-4)

    def test_threshold_blocks_tiny_improvements(self):
        s = PlateauScheduler(1e-3, patience=2, factor=0.5, threshold=1e-5)
        s.step(1.0)
        s.step(1.0 - 5e-6)  # within threshold: counts as stagnant
        assert s.step(1.0 - 9e-6) == pytest.approx(5e-4)

    def test_lr_never_increases(self, rng):
        s = PlateauScheduler(1e-3, patience=3, factor=0.8)
        lr_trace = [s.step(float(v)) for v in rng.random(50)]
        assert all(b <= a + 1e-12 for a, b in zip(lr_trace, lr_trace[1:]))
