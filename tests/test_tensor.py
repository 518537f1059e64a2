import weakref

import numpy as np
import pytest

from vswu import tensor as T
from vswu.gradcheck import KERNEL_CASES
from vswu.nn import Parameter
from vswu.tensor import Tensor, backward, finite_diff_check

from conftest import held_bytes
from oracles import naive_conv2d, reference_conv2d


def _sq(y):
    return (y * y).sum()


def _cube(y):
    return (y * y * y).sum()


class TestMatmul:
    def test_identity(self):
        b = np.arange(6, dtype=np.float64).reshape(2, 3)
        out = T.matmul(Tensor(np.eye(2)), Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_hand_case(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        np.testing.assert_allclose(out.data, [[17.0], [39.0]])

    def test_zero_annihilator(self, rng):
        out = T.matmul(Tensor(np.zeros((3, 4), np.float32)), Tensor(rng.normal(size=(4, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_adjoints(self, rng):
        a = rng.normal(size=(3, 4))
        b = Tensor(rng.normal(size=(4, 2)))
        err = finite_diff_check(lambda t: _sq(T.matmul(t, b)), Tensor(a))
        assert err <= 1e-6

    def test_batched_adjoint(self, rng):
        a = rng.normal(size=(5, 3, 4))
        b = Tensor(rng.normal(size=(4, 2)))
        err = finite_diff_check(lambda t: _cube(T.matmul(t, b)), Tensor(a))
        assert err <= 1e-6
        a2 = Tensor(rng.normal(size=(5, 3, 4)))
        err = finite_diff_check(lambda t: _sq(T.matmul(a2, t)),
                                Tensor(rng.normal(size=(4, 2))))
        assert err <= 1e-6


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = rng.random((1, 6, 6))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = T.conv2d(Tensor(x), Tensor(k), stride=1, pad=1)
        np.testing.assert_allclose(out.data, x, atol=1e-7)

    def test_ones_kernel_counts_neighbourhood(self):
        x = np.ones((1, 3, 3))
        k = np.ones((1, 1, 3, 3))
        out = T.conv2d(Tensor(x), Tensor(k), stride=1, pad=1).data[0]
        expected = naive_conv2d(x, k, 1, 1)[0]
        np.testing.assert_allclose(out, expected)
        assert out[1, 1] == 9 and out[0, 1] == 6 and out[0, 0] == 4

    def test_zero_input(self, rng):
        out = T.conv2d(Tensor(np.zeros((2, 5, 5), np.float32)),
                       Tensor(rng.normal(size=(3, 2, 3, 3))), stride=1, pad=1)
        np.testing.assert_array_equal(out.data, np.zeros((3, 5, 5)))

    @pytest.mark.parametrize("shape,stride,pad", [
        ((1, 5, 5), 1, 1), ((3, 8, 7), 2, 1), ((4, 16, 16), 1, 0), ((4, 16, 16), 2, 1),
        ((3, 9, 7), 1, 1), ((3, 9, 7), 2, 0)])
    def test_matches_naive_loop(self, rng, shape, stride, pad):
        x = rng.normal(size=shape)
        k = rng.normal(size=(3, shape[0], 3, 3))
        b = rng.normal(size=3)
        out = T.conv2d(Tensor(x), Tensor(k), stride=stride, pad=pad, bias=Tensor(b))
        np.testing.assert_allclose(out.data, naive_conv2d(x, k, stride, pad, b),
                                   atol=1e-5)

    @pytest.mark.parametrize("shape,stride", [
        ((3, 9, 7), 1), ((3, 9, 7), 2), ((4, 16, 16), 1), ((4, 16, 16), 2)])
    def test_pointwise_matches_naive_loop(self, rng, shape, stride):
        # 1x1 kernels take the strided input itself as the im2col columns
        x = rng.normal(size=shape)
        k = rng.normal(size=(5, shape[0], 1, 1))
        b = rng.normal(size=5)
        out = T.conv2d(Tensor(x), Tensor(k), stride=stride, pad=0, bias=Tensor(b))
        np.testing.assert_allclose(out.data, naive_conv2d(x, k, stride, 0, b),
                                   atol=1e-5)

    @pytest.mark.parametrize("ksize,stride,pad", [
        (1, 1, 0), (1, 2, 0), (3, 1, 0), (3, 2, 0), (3, 1, 1), (3, 2, 1),
        (5, 1, 2), (5, 2, 2)])
    def test_adjoint(self, rng, ksize, stride, pad):
        x = rng.normal(size=(2, 7, 6))
        k = rng.normal(size=(3, 2, ksize, ksize))
        kt = Tensor(k)
        err = finite_diff_check(lambda t: _cube(T.conv2d(t, kt, stride, pad)),
                                Tensor(x))
        assert err <= 1e-6
        xt = Tensor(x)
        err = finite_diff_check(lambda t: _cube(T.conv2d(xt, t, stride, pad)),
                                Tensor(k))
        assert err <= 1e-6

    # every conv of one default-config (64x64, t=5) train step, in float32:
    # (input shape, output channels, kernel size, stride, pad)
    DEFAULT_MODEL_CONVS = [
        ((1, 64, 64), 16, 3, 2, 1), ((16, 32, 32), 32, 3, 2, 1), ((32, 16, 16), 32, 3, 1, 1),
        ((16, 32, 32), 32, 1, 2, 0), ((32, 16, 16), 64, 3, 2, 1), ((64, 8, 8), 64, 3, 1, 1),
        ((32, 16, 16), 64, 1, 2, 0), ((64, 8, 8), 128, 3, 2, 1), ((128, 4, 4), 128, 3, 1, 1),
        ((64, 8, 8), 128, 1, 2, 0), ((128, 4, 4), 128, 1, 1, 0), ((128, 4, 4), 1, 1, 1, 0),
        ((256, 8, 8), 128, 3, 1, 1), ((160, 16, 16), 64, 3, 1, 1), ((80, 32, 32), 32, 3, 1, 1),
        ((32, 64, 64), 16, 3, 1, 1), ((16, 64, 64), 16, 3, 1, 1), ((16, 64, 64), 2, 1, 1, 0)]
    OTHER_CONVS = [((3, 9, 7), 4, 5, 1, 2), ((3, 9, 7), 4, 5, 2, 2), ((3, 9, 7), 4, 3, 1, 0),
                   ((3, 9, 7), 4, 3, 2, 0), ((3, 9, 7), 4, 3, 1, 1), ((3, 9, 7), 4, 3, 2, 1),
                   ((3, 9, 7), 4, 1, 1, 0), ((3, 9, 7), 4, 1, 2, 0)]

    @pytest.mark.parametrize("shape,cout,ksize,stride,pad", DEFAULT_MODEL_CONVS, ids=str)
    def test_bit_identical_to_reference_float32(self, rng, shape, cout, ksize, stride, pad):
        self._check_bits(rng, np.float32, shape, cout, ksize, stride, pad)

    @pytest.mark.parametrize("shape,cout,ksize,stride,pad", OTHER_CONVS, ids=str)
    def test_bit_identical_to_reference_float64(self, rng, shape, cout, ksize, stride, pad):
        with T.precision("float64"):
            self._check_bits(rng, np.float64, shape, cout, ksize, stride, pad)

    @staticmethod
    def _check_bits(rng, dtype, shape, cout, ksize, stride, pad):
        x = rng.normal(size=shape).astype(dtype)
        k = (rng.normal(size=(cout, shape[0], ksize, ksize)) * 0.1).astype(dtype)
        b = rng.normal(size=cout).astype(dtype)
        xt, kt, bt = (Tensor(a, requires_grad=True) for a in (x, k, b))
        out = T.conv2d(xt, kt, stride=stride, pad=pad, bias=bt)
        g = rng.normal(size=out.shape).astype(dtype)
        backward((out * Tensor(g)).sum())
        ref_out, ref_dx, ref_dk, ref_db = reference_conv2d(x, k, g, stride, pad, b)
        for got, want in ((out.data, ref_out), (xt.grad, ref_dx), (kt.grad, ref_dk),
                          (bt.grad, ref_db)):
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got, want)

    # the stride-1 calls that record no graph take the per-tap forward, which
    # sums in another order: equal to rounding, relative to max |out|
    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no-bias"])
    @pytest.mark.parametrize("shape,cout,ksize,stride,pad",
                             [c for c in DEFAULT_MODEL_CONVS if c[3] == 1], ids=str)
    def test_no_graph_forward_float32(self, rng, shape, cout, ksize, stride, pad,
                                      with_bias):
        self._check_no_graph(rng, np.float32, 1e-5, shape, cout, ksize, pad, with_bias)

    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no-bias"])
    @pytest.mark.parametrize("shape,cout,ksize,stride,pad",
                             [c for c in OTHER_CONVS if c[3] == 1], ids=str)
    def test_no_graph_forward_float64(self, rng, shape, cout, ksize, stride, pad,
                                      with_bias):
        with T.precision("float64"):
            self._check_no_graph(rng, np.float64, 1e-12, shape, cout, ksize, pad,
                                 with_bias)

    @staticmethod
    def _check_no_graph(rng, dtype, rtol, shape, cout, ksize, pad, with_bias):
        x = rng.normal(size=shape).astype(dtype)
        k = (rng.normal(size=(cout, shape[0], ksize, ksize)) * 0.1).astype(dtype)
        b = rng.normal(size=cout).astype(dtype) if with_bias else None
        out_hw = tuple(n + 2 * pad - ksize + 1 for n in shape[1:])
        want = reference_conv2d(x, k, np.zeros((cout,) + out_hw, dtype), 1, pad, b)[0]

        def bias(requires_grad):
            return None if b is None else Tensor(b, requires_grad=requires_grad)

        with T.no_grad():  # operands that need gradients, graph recording off
            off = T.conv2d(Tensor(x, requires_grad=True), Tensor(k, requires_grad=True),
                           1, pad, bias(True))
        constants = T.conv2d(Tensor(x), Tensor(k), 1, pad, bias(False))
        for got in (off, constants):
            assert got._parents == () and got._backward is None and not got.requires_grad
            assert got.data.dtype == dtype and got.shape == want.shape
            assert np.max(np.abs(got.data - want)) <= rtol * np.max(np.abs(want))
        np.testing.assert_array_equal(off.data, constants.data)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_recording_conv_holds_less_than_its_columns(self, rng, stride):
        """The backward keeps the padded input and rebuilds the im2col
        columns, ``kh*kw`` copies of it, only while it runs."""
        x = Tensor(rng.normal(size=(32, 64, 64)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(16, 32, 3, 3)).astype(np.float32), requires_grad=True)
        out, held, _ = held_bytes(lambda: T.conv2d(x, k, stride=stride, pad=1))
        assert out._backward is not None
        _, ho, wo = out.shape
        assert held - out.data.nbytes < 32 * 3 * 3 * ho * wo * 4

    def test_empty_output_raises(self):
        with pytest.raises(ValueError, match="empty"):
            T.conv2d(Tensor(np.zeros((1, 2, 2), np.float32)),
                     Tensor(np.zeros((1, 1, 5, 5), np.float32)), stride=1, pad=0)

    def test_even_kernel_raises(self):
        with pytest.raises(ValueError, match="odd"):
            T.conv2d(Tensor(np.zeros((1, 4, 4), np.float32)),
                     Tensor(np.zeros((1, 1, 2, 2), np.float32)))


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_direct_evaluation(self):
        x = [1.0, 2.0, 3.0]
        expected = np.exp(x) / np.exp(x).sum()
        out = T.softmax(Tensor(x), axis=-1)
        np.testing.assert_allclose(out.data, expected, atol=1e-6)
        np.testing.assert_allclose(out.data, [0.09003, 0.24473, 0.66524], atol=1e-5)

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(4, 6))
        a = T.softmax(Tensor(x), axis=-1).data
        b = T.softmax(Tensor(x + 13.7), axis=-1).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_rows_sum_to_one(self, rng):
        out = T.softmax(Tensor(rng.normal(size=(5, 9)) * 10), axis=-1).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(5), atol=1e-6)
        assert (out > 0).all() and (out < 1).all()


class TestLayerNorm:
    def test_constant_slice_collapses_to_beta(self):
        out = T.layer_norm(Tensor([5.0, 5.0, 5.0]), Tensor(np.ones(3, np.float32)),
                           Tensor(np.zeros(3, np.float32)))
        np.testing.assert_allclose(out.data, np.zeros(3), atol=1e-6)

    def test_two_point_slice(self):
        out = T.layer_norm(Tensor([1.0, 3.0]), Tensor(np.ones(2, np.float32)),
                           Tensor(np.zeros(2, np.float32)))
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-2)

    def test_gamma_zero_gives_beta(self, rng):
        beta = rng.normal(size=6)
        out = T.layer_norm(Tensor(rng.normal(size=(4, 6))), Tensor(np.zeros(6, np.float32)),
                           Tensor(beta))
        np.testing.assert_allclose(out.data, np.broadcast_to(beta, (4, 6)), atol=1e-7)

    def test_normalizes_mean(self, rng):
        out = T.layer_norm(Tensor(rng.normal(size=(7, 11))), Tensor(np.ones(11, np.float32)),
                           Tensor(np.zeros(11, np.float32)))
        assert np.abs(out.data.mean(axis=-1)).max() <= 1e-6


class TestGelu:
    def test_zero(self):
        assert T.gelu(Tensor([0.0])).data[0] == 0.0

    def test_one(self):
        # x * Phi(x) with Phi(1) = 0.841345
        out = float(T.gelu(Tensor([1.0], dtype=np.float64)).data[0])
        assert abs(out - 0.841345) <= 1e-5

    def test_negative_asymptote(self):
        assert abs(float(T.gelu(Tensor([-10.0])).data[0])) < 1e-8

    def test_monotone_on_grid(self):
        # exact GELU dips below x ~ -0.7519; it is monotone to the right
        x = np.linspace(-0.75, 5, 201)
        y = T.gelu(Tensor(x)).data
        assert (np.diff(y) >= 0).all()


class TestErf:
    """``tensor._erf`` against ``scipy.special.erf`` as the oracle."""

    def test_float32_bit_identical_to_scipy(self):
        from scipy.special import erf
        top = int(np.float32(7.0).view(np.uint32))
        bits = np.arange(0, top + 1, 997, dtype=np.uint32)
        pos = bits.view(np.float32)
        special = np.array([0.0, 1.0, 6.0, 7.0, np.inf, np.nan], np.float32)
        x = np.concatenate([pos, -pos, special, -special])
        got, want = T._erf(x), erf(x)
        assert got.dtype == np.float32 and len(x) > 2_000_000
        nan = np.isnan(want)  # scipy drops a nan's sign bit; _erf keeps it
        assert np.array_equal(np.isnan(got), nan) and nan.sum() == 2
        assert np.array_equal(got.view(np.uint32)[~nan], want.view(np.uint32)[~nan])

    def test_float64_within_one_ulp_of_scipy(self):
        from scipy.special import erf
        gen = np.random.default_rng(1606)
        x = np.concatenate([gen.standard_normal(500_000) * 2.5,
                            gen.uniform(-7.0, 7.0, 500_000)])
        got = T._erf(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        ulps = np.abs(got.view(np.int64) - erf(x).view(np.int64))
        assert ulps.max() <= 1

    def test_keeps_shape(self):
        x = np.linspace(-3, 3, 24, dtype=np.float32).reshape(2, 3, 4)
        assert T._erf(x).shape == (2, 3, 4)
        assert T._erf(np.float64(0.5) * np.ones(())).shape == ()


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_hand_differentiated_square(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward((x * x).sum())
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_no_grad_leaf_stays_absent(self, rng):
        x = Tensor(rng.normal(size=3), requires_grad=True)
        y = Tensor(rng.normal(size=3), requires_grad=False)
        backward((x * y).sum())
        assert x.grad is not None and y.grad is None

    def test_non_scalar_loss_rejected(self, rng):
        x = Tensor(rng.normal(size=3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(x * 2.0)

    def test_second_backward_rejected(self, rng):
        x = Tensor(rng.normal(size=3), requires_grad=True)
        loss = (x * x).sum()
        backward(loss)
        with pytest.raises(RuntimeError, match="already ran"):
            backward(loss)

    def test_conv_closure_freed_before_its_kernel_contribution(self, rng):
        """A conv's closure (and the padded input it saved) is gone by the
        time the pass yields the kernel gradient it computed."""
        x = Tensor(rng.normal(size=(2, 6, 6)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        y = T.conv2d(x, k, pad=1)
        closure = weakref.ref(y._backward)
        alive_at_yield = [closure() is not None
                          for leaf, _ in T._leaf_gradients((y * y).sum()) if leaf is k]
        assert alive_at_yield == [False]

    def test_backward_that_raised_partway_cannot_be_retried(self):
        """The loss is consumed before the first closure runs, so a retry
        cannot fold the contributions that arrived before the error twice."""
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        sq = (y * y).sum()
        loss = x.sum() + sq
        closure = sq._backward

        def failing(g, grads):
            raise FloatingPointError("injected")

        sq._backward = failing
        with pytest.raises(FloatingPointError, match="injected"):
            backward(loss)
        sq._backward = closure
        with pytest.raises(RuntimeError, match="already ran"):
            backward(loss)

    def test_grad_accumulates_across_graphs(self):
        x = Tensor([1.0], requires_grad=True)
        backward((x * 2.0).sum())
        backward((x * 3.0).sum())
        np.testing.assert_allclose(x.grad, [5.0])

    def test_detached_loss_rejected(self):
        with pytest.raises(RuntimeError, match="recorded graph"):
            backward(Tensor([1.0]))


class TestFiniteDiff:
    def test_sum_of_squares(self, rng):
        err = finite_diff_check(lambda t: (t * t).sum(), Tensor(rng.normal(size=7)))
        assert err <= 1e-6

    def test_linear_is_nearly_exact(self, rng):
        err = finite_diff_check(lambda t: t.sum(), Tensor(rng.normal(size=5)))
        assert err <= 1e-9

    def test_composite_bce_dice(self, rng):
        from vswu.losses import combined_loss
        y = (rng.random((2, 6, 6)) > 0.5).astype(np.float64)

        def f(t):
            return combined_loss(T.sigmoid(t), y)

        err = finite_diff_check(f, Tensor(rng.normal(size=(2, 6, 6))))
        assert err <= 1e-4


@pytest.mark.parametrize("kernel", sorted(KERNEL_CASES))
@pytest.mark.parametrize("seed", range(5))
def test_every_kernel_gradient(kernel, seed):
    rng = np.random.default_rng(100 + seed)
    fn, x = KERNEL_CASES[kernel](rng)
    assert finite_diff_check(fn, Tensor(x)) <= 1e-4


def test_seeded_replay_is_bit_identical():
    def compute():
        rng = np.random.default_rng(55)
        x = Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 1, 3, 3)).astype(np.float32))
        y = T.conv2d(x.reshape(1, 4, 4), k, stride=1, pad=1)
        loss = _sq(T.softmax(y.reshape(2, 16), -1))
        backward(loss)
        return y.data.copy(), x.grad.copy()

    y1, g1 = compute()
    y2, g2 = compute()
    assert (y1 == y2).all() and (g1 == g2).all()


def test_precision_context_switches_creation_dtype():
    assert Tensor([0.0, 0.0]).dtype == Parameter((2,)).dtype == np.float32
    with T.precision("float64"):
        assert Tensor([0.0, 0.0]).dtype == Parameter((2,)).dtype == np.float64
    assert Tensor([0.0, 0.0]).dtype == Parameter((2,)).dtype == np.float32


def test_no_grad_blocks_graph(rng):
    x = Tensor(rng.normal(size=3), requires_grad=True)
    with T.no_grad():
        y = (x * x).sum()
    assert y._backward is None
    with pytest.raises(RuntimeError):
        backward(y)


def test_finite_forward_outputs(rng):
    x = Tensor(rng.normal(size=(3, 3)) * 50)
    for out in (T.softmax(x, -1), T.sigmoid(x), T.gelu(x),
                T.layer_norm(x, Tensor(np.ones(3, np.float32)),
                             Tensor(np.zeros(3, np.float32)))):
        assert np.isfinite(out.data).all()
