import numpy as np
import pytest

from vswu import tensor as T
from vswu.nn import init_parameters
from vswu.swin import (MASK_NEG, PatchEmbed, PatchMerging, RelativePositionBias,
                       SwinBlockPair, SwinConfig, SwinEncoder, TokenGrid,
                       WindowAttention, build_relative_index, build_shift_mask,
                       unmerge_to_map, window_attention, window_partition,
                       window_reverse)
from vswu.tensor import Tensor, finite_diff_check

from oracles import dense_swmsa_oracle, shift_region


def grid_of(data, gh, gw):
    return TokenGrid(tokens=Tensor(data), gh=gh, gw=gw)


class TestPatchEmbed:
    def test_p1_is_per_position_linear(self, rng):
        pe = PatchEmbed(3, 1, 5)
        init_parameters(pe, 0)
        feat = rng.normal(size=(3, 4, 6)).astype(np.float32)
        grid = pe.forward(Tensor(feat))
        assert grid.tokens.shape == (24, 5) and (grid.gh, grid.gw) == (4, 6)
        # token (y, x) is the projection of the channel vector at (y, x)
        expected = feat[:, 2, 3] @ pe.proj.w.data.T + pe.proj.b.data
        np.testing.assert_allclose(grid.tokens.data[2 * 6 + 3], expected, atol=1e-6)

    def test_p2_sum_projection_on_ramp(self):
        pe = PatchEmbed(1, 2, 1)
        pe.proj.w.data = np.ones_like(pe.proj.w.data)
        pe.proj.b.data = np.zeros_like(pe.proj.b.data)
        ramp = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        grid = pe.forward(Tensor(ramp))
        # each token is its 2x2 patch sum
        expected = np.array([[0 + 1 + 4 + 5, 2 + 3 + 6 + 7],
                             [8 + 9 + 12 + 13, 10 + 11 + 14 + 15]], dtype=np.float32)
        np.testing.assert_allclose(grid.tokens.data.reshape(2, 2), expected)

    def test_affine_contract(self, rng):
        pe = PatchEmbed(2, 1, 4)
        init_parameters(pe, 1)
        zero_tokens = pe.forward(T.zeros((2, 4, 4))).tokens.data
        np.testing.assert_allclose(zero_tokens,
                                   np.broadcast_to(pe.proj.b.data, (16, 4)), atol=1e-7)
        pe.proj.b.data = np.zeros_like(pe.proj.b.data)
        assert (pe.forward(T.zeros((2, 4, 4))).tokens.data == 0).all()

    def test_indivisible_rejected(self, rng):
        pe = PatchEmbed(1, 2, 4)
        with pytest.raises(ValueError, match="divisible"):
            pe.forward(Tensor(rng.normal(size=(1, 5, 4))))


class TestWindowPartition:
    def test_counts_8x8_m4(self, rng):
        g = grid_of(rng.normal(size=(64, 3)).astype(np.float32), 8, 8)
        win = window_partition(g, 4)
        assert win.shape == (4, 16, 3)

    @pytest.mark.parametrize("gh,gw,m", [(8, 8, 4), (4, 8, 4), (6, 6, 3), (4, 4, 4)])
    def test_round_trip_bit_exact(self, rng, gh, gw, m):
        data = rng.normal(size=(gh * gw, 5)).astype(np.float32)
        g = grid_of(data, gh, gw)
        back = window_reverse(window_partition(g, m), gh, gw)
        assert (back.tokens.data == data).all()

    def test_single_window_row_major(self, rng):
        data = rng.normal(size=(16, 2)).astype(np.float32)
        win = window_partition(grid_of(data, 4, 4), 4)
        assert (win.data[0] == data).all()

    def test_indivisible_grid_rejected(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            window_partition(grid_of(rng.normal(size=(30, 2)), 5, 6), 4)


class TestRelativeIndex:
    def test_m1_degenerate(self):
        idx = build_relative_index(1)
        assert idx.shape == (1, 1) and idx[0, 0] == 0
        table = RelativePositionBias(
            table=__import__("vswu.nn", fromlist=["Parameter"]).Parameter((1, 3)),
            index=idx)
        assert table.gather().shape == (3, 1, 1)

    def test_m2_enumerated_by_hand(self):
        idx = build_relative_index(2)
        assert idx.shape == (4, 4)
        assert idx.max() < 9
        # tokens in row-major window order: (0,0),(0,1),(1,0),(1,1)
        # all diagonal pairs (delta = 0) map to the center row 4
        assert (np.diag(idx) == 4).all()
        coords = [(0, 0), (0, 1), (1, 0), (1, 1)]
        for i, (yi, xi) in enumerate(coords):
            for j, (yj, xj) in enumerate(coords):
                row = (yi - yj + 1) * 3 + (xi - xj + 1)
                assert idx[i, j] == row

    def test_m4_table_rows(self):
        assert build_relative_index(4).max() == 48  # (2*4-1)^2 - 1

    def test_index_depends_only_on_offset(self):
        idx = build_relative_index(3)
        # pairs with equal coordinate difference share a row
        # (0,0)->(1,1) vs (1,1)->(2,2): delta (-1,-1) both
        i1, j1 = 0, 4
        i2, j2 = 4, 8
        assert idx[i1, j1] == idx[i2, j2]


def make_attention(dim, heads, m, seed=0):
    attn = WindowAttention(dim, heads, m)
    init_parameters(attn, seed)
    return attn


class TestWindowAttention:
    def test_zero_qk_uniform_attention(self, rng):
        dim, m = 4, 2
        attn = make_attention(dim, 2, m, seed=3)
        attn.wq.data = np.zeros_like(attn.wq.data)
        attn.wk.data = np.zeros_like(attn.wk.data)
        attn.bq.data = np.zeros_like(attn.bq.data)
        attn.bk.data = np.zeros_like(attn.bk.data)
        attn.bias_table.data = np.zeros_like(attn.bias_table.data)
        windows = Tensor(rng.normal(size=(3, 4, dim)).astype(np.float32))
        out, probs = window_attention(windows, attn.wq, attn.wk, attn.wv, attn.wo,
                                      attn.bias(), 2, bq=attn.bq, bk=attn.bk,
                                      bv=attn.bv, bo=attn.bo)
        np.testing.assert_allclose(probs.data, np.full_like(probs.data, 0.25), atol=1e-6)
        v = windows.data @ attn.wv.data + attn.bv.data
        expected = np.broadcast_to(v.mean(axis=1, keepdims=True), v.shape) \
            @ attn.wo.data + attn.bo.data
        np.testing.assert_allclose(out.data, expected, atol=1e-5)

    def test_hand_case_two_tokens(self):
        # q=k=v=x with x=[1,0]: logits [[1,0],[0,0]] -> probs and output by hand
        eye = Tensor(np.eye(1, dtype=np.float64))
        windows = Tensor(np.array([[[1.0], [0.0]]]))
        out, probs = window_attention(windows, eye, eye, eye, eye, None, 1)
        e = np.exp(1.0)
        a00 = e / (e + 1.0)
        np.testing.assert_allclose(probs.data[0, 0],
                                   [[a00, 1 - a00], [0.5, 0.5]], atol=1e-4)
        np.testing.assert_allclose(probs.data[0, 0], [[0.7311, 0.2689], [0.5, 0.5]],
                                   atol=1e-4)
        np.testing.assert_allclose(out.data[0, :, 0], [a00, 0.5], atol=1e-4)

    def test_mask_zeroes_entry_and_renormalizes(self, rng):
        dim = 4
        attn = make_attention(dim, 2, 2, seed=4)
        windows = Tensor(rng.normal(size=(1, 4, dim)).astype(np.float32))
        mask = np.zeros((1, 4, 4))
        mask[0, 0, 3] = MASK_NEG
        _, probs = window_attention(windows, attn.wq, attn.wk, attn.wv, attn.wo,
                                    attn.bias(), 2, mask=mask)
        assert probs.data[0, :, 0, 3].max() <= 1e-8
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_rows_sum_to_one(self, rng):
        attn = make_attention(8, 4, 4, seed=5)
        windows = Tensor(rng.normal(size=(4, 16, 8)).astype(np.float32))
        _, probs = window_attention(windows, attn.wq, attn.wk, attn.wv, attn.wo,
                                    attn.bias(), 4)
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_head_divisibility(self, rng):
        attn = make_attention(4, 2, 2)
        windows = Tensor(rng.normal(size=(1, 4, 4)))
        with pytest.raises(ValueError, match="divisible"):
            window_attention(windows, attn.wq, attn.wk, attn.wv, attn.wo,
                             attn.bias(), 3)

    def test_zero_bias_table_equals_biasless(self, rng):
        attn = make_attention(4, 2, 2, seed=6)
        attn.bias_table.data = np.zeros_like(attn.bias_table.data)
        windows = Tensor(rng.normal(size=(2, 4, 4)).astype(np.float32))
        with_bias, _ = window_attention(windows, attn.wq, attn.wk, attn.wv,
                                        attn.wo, attn.bias(), 2)
        without, _ = window_attention(windows, attn.wq, attn.wk, attn.wv,
                                      attn.wo, None, 2)
        np.testing.assert_allclose(with_bias.data, without.data, atol=1e-7)

    def test_permuting_bias_rows_changes_output(self, rng):
        attn = make_attention(4, 2, 2, seed=7)
        attn.bias_table.data = rng.normal(size=attn.bias_table.shape).astype(np.float32)
        windows = Tensor(rng.normal(size=(2, 4, 4)).astype(np.float32))
        base, _ = window_attention(windows, attn.wq, attn.wk, attn.wv, attn.wo,
                                   attn.bias(), 2)
        attn.bias_table.data = attn.bias_table.data[::-1].copy()
        permuted, _ = window_attention(windows, attn.wq, attn.wk, attn.wv, attn.wo,
                                       attn.bias(), 2)
        assert np.abs(base.data - permuted.data).max() > 1e-4


class TestShiftMask:
    def test_single_window_four_regions(self):
        mask = build_shift_mask(4, 4, 4, 2)
        assert mask.shape == (1, 16, 16)
        # brute force: region pair equality over the 4x4 grid
        blocked = 0
        for i in range(16):
            for j in range(16):
                yi, xi, yj, xj = i // 4, i % 4, j // 4, j % 4
                ri = (shift_region(yi, 4, 4, 2), shift_region(xi, 4, 4, 2))
                rj = (shift_region(yj, 4, 4, 2), shift_region(xj, 4, 4, 2))
                expected = MASK_NEG if ri != rj else 0.0
                assert mask[0, i, j] == expected
                blocked += ri != rj
        assert (mask == MASK_NEG).sum() == blocked

    def test_8x8_exhaustive_count(self):
        mask = build_shift_mask(8, 8, 4, 2)
        assert mask.shape == (4, 16, 16)
        blocked = 0
        for wy in range(2):
            for wx in range(2):
                for a in range(16):
                    for b in range(16):
                        ya, xa = wy * 4 + a // 4, wx * 4 + a % 4
                        yb, xb = wy * 4 + b // 4, wx * 4 + b % 4
                        ra = (shift_region(ya, 8, 4, 2), shift_region(xa, 8, 4, 2))
                        rb = (shift_region(yb, 8, 4, 2), shift_region(xb, 8, 4, 2))
                        blocked += ra != rb
        assert (mask == MASK_NEG).sum() == blocked

    def test_symmetry(self):
        mask = build_shift_mask(8, 8, 4, 2)
        assert (mask == mask.transpose(0, 2, 1)).all()

    def test_invalid_shift_rejected(self):
        with pytest.raises(ValueError, match="shift"):
            build_shift_mask(8, 8, 4, 4)
        with pytest.raises(ValueError, match="shift"):
            build_shift_mask(8, 8, 4, 0)


class TestBlockPair:
    def test_zero_output_projections_pure_residual(self, rng):
        pair = SwinBlockPair(8, 2, 4, mlp_ratio=2)
        init_parameters(pair, 8)
        for name, p in pair.named_parameters():
            if name.endswith(("wo", "bo")) or ".fc2." in name:
                p.data = np.zeros_like(p.data)
        data = rng.normal(size=(64, 8)).astype(np.float32)
        out = pair.forward(grid_of(data, 8, 8))
        np.testing.assert_allclose(out.tokens.data, data, atol=1e-6)

    @pytest.mark.parametrize("n,d", [(16, 32), (64, 64)])
    def test_shape_contract(self, rng, n, d):
        side = int(np.sqrt(n))
        pair = SwinBlockPair(d, 2, side, mlp_ratio=2)
        init_parameters(pair, 9)
        out = pair.forward(grid_of(rng.normal(size=(n, d)).astype(np.float32),
                                   side, side))
        assert out.tokens.shape == (n, d)

    def test_wmsa_locality_no_mask(self, rng):
        """Zeroing one window's inputs only changes that window's outputs
        (plain W-MSA path)."""
        attn = make_attention(4, 2, 4, seed=10)
        data = rng.normal(size=(64, 4)).astype(np.float32)

        def run(tokens):
            win = window_partition(grid_of(tokens, 8, 8), 4)
            out = attn.forward(win)
            return window_reverse(out, 8, 8).tokens.data

        base = run(data)
        modified = data.copy()
        win_view = modified.reshape(2, 4, 2, 4, 4)
        win_view[1, :, 0, :, :] = 0.0  # zero window (1, 0)
        changed = run(modified)
        diff = np.abs(base - changed).reshape(2, 4, 2, 4, 4).max(axis=(1, 3, 4))
        assert diff[1, 0] > 1e-6
        assert diff[0, 0] == 0 and diff[0, 1] == 0 and diff[1, 1] == 0


def test_swmsa_matches_dense_oracle(rng):
    """Shifted-window attention equals dense masked attention on the
    shifted grid, within 1e-5 absolute (8x8 grid, M=4, shift=2, 2 heads)."""
    dim, heads, m, shift, gh, gw = 8, 2, 4, 2, 8, 8
    attn = make_attention(dim, heads, m, seed=11)
    attn.bias_table.data = (rng.normal(size=attn.bias_table.shape) * 0.3).astype(np.float32)
    tokens = rng.normal(size=(64, dim)).astype(np.float32)

    x = T.roll(Tensor(tokens).reshape(gh, gw, dim), (-shift, -shift), (0, 1))
    windows = window_partition(TokenGrid(x.reshape(gh * gw, dim), gh, gw), m)
    mask = build_shift_mask(gh, gw, m, shift)
    out_win = attn.forward(windows, mask=mask)
    out = window_reverse(out_win, gh, gw).tokens
    out = T.roll(out.reshape(gh, gw, dim), (shift, shift), (0, 1)).reshape(gh * gw, dim)

    expected = dense_swmsa_oracle(
        tokens.astype(np.float64), gh, gw, m, shift, heads,
        attn.wq.data.astype(np.float64), attn.wk.data.astype(np.float64),
        attn.wv.data.astype(np.float64), attn.wo.data.astype(np.float64),
        attn.bias_table.data.astype(np.float64),
        attn.bq.data, attn.bk.data, attn.bv.data, attn.bo.data)
    np.testing.assert_allclose(out.data, expected, atol=1e-5)


class TestPatchMerging:
    def test_shape_4x4_to_2x2(self, rng):
        pm = PatchMerging(8)
        init_parameters(pm, 12)
        out = pm.forward(grid_of(rng.normal(size=(16, 8)).astype(np.float32), 4, 4))
        assert out.tokens.shape == (4, 16) and (out.gh, out.gw) == (2, 2)

    def test_token_count_quarters(self, rng):
        pm = PatchMerging(4)
        init_parameters(pm, 13)
        out = pm.forward(grid_of(rng.normal(size=(64, 4)).astype(np.float32), 8, 8))
        assert out.tokens.shape[0] == 16

    def test_average_projection_hand_case(self, rng):
        d = 3
        pm = PatchMerging(d)
        init_parameters(pm, 14)
        # projection averaging the four post-norm D-blocks, duplicated to 2D
        w = np.zeros((2 * d, 4 * d), dtype=np.float32)
        for o in range(2 * d):
            for blk in range(4):
                w[o, blk * d + o % d] = 0.25
        pm.reduce.w.data = w

        # constant input: layer norm collapses each slice to zero
        const = np.ones((16, d), dtype=np.float32) * 3.3
        out = pm.forward(grid_of(const, 4, 4))
        np.testing.assert_allclose(out.tokens.data, np.zeros((4, 2 * d)), atol=1e-5)

        # random input: replicate with an independent numpy layer norm
        data = rng.normal(size=(16, d)).astype(np.float32)
        out = pm.forward(grid_of(data, 4, 4)).tokens.data
        x = data.reshape(4, 4, d)
        for gy in range(2):
            for gx in range(2):
                parents = np.concatenate([
                    x[2 * gy, 2 * gx], x[2 * gy + 1, 2 * gx],
                    x[2 * gy, 2 * gx + 1], x[2 * gy + 1, 2 * gx + 1]])
                normed = (parents - parents.mean()) / np.sqrt(parents.var() + 1e-5)
                mean_block = normed.reshape(4, d).mean(axis=0)
                np.testing.assert_allclose(out[gy * 2 + gx],
                                           np.tile(mean_block, 2), atol=1e-4)

    def test_odd_grid_rejected(self, rng):
        pm = PatchMerging(4)
        with pytest.raises(ValueError, match="even"):
            pm.forward(grid_of(rng.normal(size=(9, 4)), 3, 3))


class TestEncoder:
    def test_merge_auto_policy(self):
        big = SwinEncoder(4, SwinConfig(embed_dim=8, depths=(2, 2), heads=(2, 2),
                                        window_size=(4, 4)), (8, 8))
        small = SwinEncoder(4, SwinConfig(embed_dim=8, depths=(2, 2), heads=(2, 2),
                                          window_size=(4, 4)), (4, 4))
        assert big.plan.merges == 1 and small.plan.merges == 0

    def test_forward_and_map_shapes_with_merge(self, rng):
        enc = SwinEncoder(4, SwinConfig(embed_dim=8, depths=(2, 2), heads=(2, 2),
                                        window_size=(4, 2)), (8, 8))
        init_parameters(enc, 15)
        grid = enc.forward(Tensor(rng.normal(size=(4, 8, 8)).astype(np.float32)))
        assert grid.tokens.shape == (16, 16) and grid.gh == 4
        fmap = enc.to_map(grid)
        assert fmap.shape == (enc.plan.map_channels, 8, 8)
        assert enc.plan.map_channels == 4  # 16 merged channels unmerge to 4

    def test_unmerge_is_exact_depth_to_space(self, rng):
        data = rng.normal(size=(4, 8)).astype(np.float32)
        fmap = unmerge_to_map(grid_of(data, 2, 2), merges=1)
        assert fmap.shape == (2, 4, 4)
        # chunk k of token (y, x) lands at (2y + k%2, 2x + k//2)
        for y in range(2):
            for x in range(2):
                for k in range(4):
                    dy, dx = k % 2, k // 2
                    np.testing.assert_allclose(
                        fmap.data[:, 2 * y + dy, 2 * x + dx],
                        data[y * 2 + x, k * 2:(k + 1) * 2])

    def test_odd_depth_rejected(self):
        with pytest.raises(ValueError, match="even"):
            SwinConfig(depths=(3,), heads=(2,), window_size=(4,)).validate()

    @pytest.mark.parametrize("merge", ["false", "yes"])
    def test_merge_string_other_than_auto_rejected(self, merge):
        with pytest.raises(ValueError, match="merge_between_stages"):
            SwinConfig(merge_between_stages=merge).validate()

    def test_encoder_finite_diff(self, rng):
        with T.precision("float64"):
            enc = SwinEncoder(2, SwinConfig(embed_dim=4, depths=(2,), heads=(2,),
                                            window_size=(4,), mlp_ratio=2), (8, 8))
            init_parameters(enc, 16)

            def f(t):
                return (enc.forward(t).tokens ** 2).sum()

            err = finite_diff_check(f, Tensor(rng.normal(size=(2, 8, 8))))
        assert err <= 1e-4
