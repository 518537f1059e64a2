import numpy as np
import pytest

from vswu import tensor as T
from vswu.nn import init_parameters
from vswu.swin import (MASK_NEG, PatchEmbed, PatchMerging, SwinBlockPair,
                       SwinConfig, SwinEncoder, WindowAttention,
                       build_relative_index, build_shift_mask, unmerge_to_map,
                       window_partition, window_reverse)
from vswu.tensor import Tensor, finite_diff_check

from oracles import dense_swmsa_oracle, shift_region


class TestPatchEmbed:
    def test_p1_is_per_position_linear(self, rng):
        pe = PatchEmbed(3, 1, 5)
        init_parameters(pe, 0)
        feat = rng.normal(size=(1, 3, 4, 6)).astype(np.float32)
        tokens = pe.forward(Tensor(feat))
        assert tokens.shape == (1, 24, 5)
        # token (y, x) is the projection of the channel vector at (y, x)
        expected = feat[0, :, 2, 3] @ pe.proj.w.data.T + pe.proj.b.data
        np.testing.assert_allclose(tokens.data[0, 2 * 6 + 3], expected, atol=1e-6)

    def test_p2_sum_projection_on_ramp(self):
        pe = PatchEmbed(1, 2, 1)
        pe.proj.w.data = np.ones_like(pe.proj.w.data)
        pe.proj.b.data = np.zeros_like(pe.proj.b.data)
        ramp = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        tokens = pe.forward(Tensor(ramp))
        # each token is its 2x2 patch sum
        expected = np.array([[0 + 1 + 4 + 5, 2 + 3 + 6 + 7],
                             [8 + 9 + 12 + 13, 10 + 11 + 14 + 15]], dtype=np.float32)
        np.testing.assert_allclose(tokens.data.reshape(2, 2), expected)

    def test_affine_contract(self, rng):
        pe = PatchEmbed(2, 1, 4)
        init_parameters(pe, 1)
        zero_tokens = pe.forward(Tensor(np.zeros((1, 2, 4, 4), np.float32))).data
        np.testing.assert_allclose(zero_tokens,
                                   np.broadcast_to(pe.proj.b.data, (1, 16, 4)), atol=1e-7)
        pe.proj.b.data = np.zeros_like(pe.proj.b.data)
        assert (pe.forward(Tensor(np.zeros((1, 2, 4, 4), np.float32))).data == 0).all()

    def test_indivisible_rejected(self, rng):
        pe = PatchEmbed(1, 2, 4)
        with pytest.raises(ValueError, match="divisible"):
            pe.forward(Tensor(rng.normal(size=(1, 1, 5, 4))))


class TestWindowPartition:
    def test_counts_8x8_m4(self, rng):
        win = window_partition(Tensor(rng.normal(size=(1, 64, 3)).astype(np.float32)), 8, 8, 4)
        assert win.shape == (4, 16, 3)

    @pytest.mark.parametrize("gh,gw,m", [(8, 8, 4), (4, 8, 4), (6, 6, 3), (4, 4, 4)])
    def test_round_trip_bit_exact(self, rng, gh, gw, m):
        data = rng.normal(size=(1, gh * gw, 5)).astype(np.float32)
        back = window_reverse(window_partition(Tensor(data), gh, gw, m), gh, gw)
        assert (back.data == data).all()

    def test_single_window_row_major(self, rng):
        data = rng.normal(size=(1, 16, 2)).astype(np.float32)
        win = window_partition(Tensor(data), 4, 4, 4)
        assert (win.data[0] == data[0]).all()

    def test_indivisible_grid_rejected(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            window_partition(Tensor(rng.normal(size=(1, 30, 2))), 5, 6, 4)


class TestRelativeIndex:
    def test_m1_degenerate(self, rng):
        idx = build_relative_index(1)
        assert idx.shape == (1, 1) and idx[0, 0] == 0
        # one-token windows: a single bias row, each token attends to itself
        attn = make_attention(4, 2, 1)
        assert attn.bias_table.shape == (1, 2)
        _, probs = attn.forward(Tensor(rng.normal(size=(3, 1, 4)).astype(np.float32)))
        assert probs.shape == (3, 2, 1, 1) and (probs.data == 1).all()

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


def numpy_attention(x, attn):
    """Biasless, unmasked window attention in plain numpy."""
    nw, m2, d = x.shape
    dh = d // attn.heads

    def split(y):
        return y.reshape(nw, m2, attn.heads, dh).transpose(0, 2, 1, 3)

    q = split(x @ attn.wq.data + attn.bq.data)
    k = split(x @ attn.wk.data + attn.bk.data)
    v = split(x @ attn.wv.data + attn.bv.data)
    logits = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh)
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    out = (p @ v).transpose(0, 2, 1, 3).reshape(nw, m2, d)
    return out @ attn.wo.data + attn.bo.data


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
        out, probs = attn.forward(windows)
        np.testing.assert_allclose(probs.data, np.full_like(probs.data, 0.25), atol=1e-6)
        v = windows.data @ attn.wv.data + attn.bv.data
        expected = np.broadcast_to(v.mean(axis=1, keepdims=True), v.shape) \
            @ attn.wo.data + attn.bo.data
        np.testing.assert_allclose(out.data, expected, atol=1e-5)

    def test_hand_case_two_tokens(self):
        # one 2x2 window, dim 1, identity weights, zero biases: q=k=v=x with
        # x=[1,0,0,0].  Token 0 sees logits [1,0,0,0], the rest see zeros.
        attn = WindowAttention(1, 1, 2)
        for w in (attn.wq, attn.wk, attn.wv, attn.wo):
            w.data = np.ones_like(w.data)
        windows = Tensor(np.array([[[1.0], [0.0], [0.0], [0.0]]], dtype=np.float32))
        out, probs = attn.forward(windows)
        e = np.exp(1.0)
        a00 = e / (e + 3.0)
        a0j = (1.0 - a00) / 3.0
        np.testing.assert_allclose(probs.data[0, 0],
                                   [[a00, a0j, a0j, a0j]] + [[0.25] * 4] * 3, atol=1e-4)
        np.testing.assert_allclose(probs.data[0, 0, 0], [0.4754, 0.1749, 0.1749, 0.1749],
                                   atol=1e-4)
        np.testing.assert_allclose(out.data[0, :, 0], [a00, 0.25, 0.25, 0.25], atol=1e-4)

    def test_mask_zeroes_entry_and_renormalizes(self, rng):
        dim = 4
        attn = make_attention(dim, 2, 2, seed=4)
        windows = Tensor(rng.normal(size=(1, 4, dim)).astype(np.float32))
        mask = np.zeros((1, 4, 4))
        mask[0, 0, 3] = MASK_NEG
        _, probs = attn.forward(windows, mask=mask)
        assert probs.data[0, :, 0, 3].max() <= 1e-8
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_rows_sum_to_one(self, rng):
        attn = make_attention(8, 4, 4, seed=5)
        windows = Tensor(rng.normal(size=(4, 16, 8)).astype(np.float32))
        _, probs = attn.forward(windows)
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            WindowAttention(4, 3, 2)

    def test_zero_bias_table_equals_biasless(self, rng):
        with T.precision("float64"):
            attn = make_attention(4, 2, 2, seed=6)
            attn.bias_table.data = np.zeros_like(attn.bias_table.data)
            x = rng.normal(size=(2, 4, 4))
            with_bias, _ = attn.forward(Tensor(x))
        np.testing.assert_allclose(with_bias.data, numpy_attention(x, attn), atol=1e-7)

    def test_permuting_bias_rows_changes_output(self, rng):
        attn = make_attention(4, 2, 2, seed=7)
        attn.bias_table.data = rng.normal(size=attn.bias_table.shape).astype(np.float32)
        windows = Tensor(rng.normal(size=(2, 4, 4)).astype(np.float32))
        base, _ = attn.forward(windows)
        attn.bias_table.data = attn.bias_table.data[::-1].copy()
        permuted, _ = attn.forward(windows)
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
        data = rng.normal(size=(1, 64, 8)).astype(np.float32)
        out = pair.forward(Tensor(data), 8, 8)
        np.testing.assert_allclose(out.data, data, atol=1e-6)

    @pytest.mark.parametrize("n,d", [(16, 32), (64, 64)])
    def test_shape_contract(self, rng, n, d):
        side = int(np.sqrt(n))
        pair = SwinBlockPair(d, 2, side, mlp_ratio=2)
        init_parameters(pair, 9)
        out = pair.forward(Tensor(rng.normal(size=(1, n, d)).astype(np.float32)), side, side)
        assert out.shape == (1, n, d)

    def test_wmsa_locality_no_mask(self, rng):
        """Zeroing one window's inputs only changes that window's outputs
        (plain W-MSA path)."""
        attn = make_attention(4, 2, 4, seed=10)
        data = rng.normal(size=(1, 64, 4)).astype(np.float32)

        def run(tokens):
            out, _ = attn.forward(window_partition(Tensor(tokens), 8, 8, 4))
            return window_reverse(out, 8, 8).data

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

    x = T.roll(Tensor(tokens).reshape(1, gh, gw, dim), (-shift, -shift), (1, 2))
    windows = window_partition(x.reshape(1, gh * gw, dim), gh, gw, m)
    mask = build_shift_mask(gh, gw, m, shift)
    out_win, _ = attn.forward(windows, mask=mask)
    out = window_reverse(out_win, gh, gw)
    out = T.roll(out.reshape(1, gh, gw, dim), (shift, shift), (1, 2)).reshape(gh * gw, dim)

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
        out = pm.forward(Tensor(rng.normal(size=(1, 16, 8)).astype(np.float32)), 4, 4)
        assert out.shape == (1, 4, 16)

    def test_token_count_quarters(self, rng):
        pm = PatchMerging(4)
        init_parameters(pm, 13)
        out = pm.forward(Tensor(rng.normal(size=(1, 64, 4)).astype(np.float32)), 8, 8)
        assert out.shape[1] == 16

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
        const = np.ones((1, 16, d), dtype=np.float32) * 3.3
        out = pm.forward(Tensor(const), 4, 4)
        np.testing.assert_allclose(out.data, np.zeros((1, 4, 2 * d)), atol=1e-5)

        # random input: replicate with an independent numpy layer norm
        data = rng.normal(size=(16, d)).astype(np.float32)
        out = pm.forward(Tensor(data[None]), 4, 4).data[0]
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
            pm.forward(Tensor(rng.normal(size=(1, 9, 4))), 3, 3)


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
        fmap = enc.forward(Tensor(rng.normal(size=(1, 4, 8, 8)).astype(np.float32)))
        assert enc.plan.dims == (8, 16)  # one merge: 16 tokens of dim 16 on a 4x4 grid
        assert fmap.shape == (1, enc.plan.map_channels, 8, 8)
        assert enc.plan.map_channels == 4  # 16 merged channels unmerge to 4

    @pytest.mark.parametrize("grid,cfg", [
        ((4, 4), SwinConfig(embed_dim=8, depths=(2,), heads=(2,), window_size=(2,))),
        ((8, 8), SwinConfig(embed_dim=8, depths=(2, 2), heads=(2, 2), window_size=(4, 2))),
        ((8, 8), SwinConfig(embed_dim=8, depths=(2,), heads=(2,), window_size=(2,),
                            patch_size=2)),
    ], ids=["shift-4x4", "merge-8x8", "patch-2"])
    def test_batch_equals_one_map_at_a_time(self, rng, grid, cfg):
        """A batch of maps encodes bit-identically to one map per call."""
        enc = SwinEncoder(4, cfg, grid)
        init_parameters(enc, 18)
        maps = rng.normal(size=(3, 4, *grid)).astype(np.float32)
        batched = enc.forward(Tensor(maps)).data
        assert batched.shape == (3, enc.plan.map_channels, *grid)
        for i in range(3):
            assert np.array_equal(batched[i], enc.forward(Tensor(maps[i:i + 1])).data[0])

    def test_unmerge_is_exact_depth_to_space(self, rng):
        data = rng.normal(size=(4, 8)).astype(np.float32)
        fmap = unmerge_to_map(Tensor(data[None]), 2, 2, merges=1)
        assert fmap.shape == (1, 2, 4, 4)
        # chunk k of token (y, x) lands at (2y + k%2, 2x + k//2)
        for y in range(2):
            for x in range(2):
                for k in range(4):
                    dy, dx = k % 2, k // 2
                    np.testing.assert_allclose(
                        fmap.data[0, :, 2 * y + dy, 2 * x + dx],
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
                y = enc.forward(t)
                return (y * y).sum()

            err = finite_diff_check(f, Tensor(rng.normal(size=(1, 2, 8, 8))))
        assert err <= 1e-4

    def test_plan_rejects_heads_not_dividing_stage_dim(self, rng):
        # embed_dim 6 merged once: stage dims (6, 12); the check is per stage
        enc = SwinEncoder(3, SwinConfig(embed_dim=6, heads=(3, 4), window_size=(4, 4)), (8, 8))
        assert enc.plan.dims == (6, 12)
        init_parameters(enc, 17)
        assert enc.forward(Tensor(rng.normal(size=(1, 3, 8, 8)).astype(np.float32))).shape == \
            (1, enc.plan.map_channels, 8, 8)
        cfg = SwinConfig(embed_dim=6, heads=(2, 4), window_size=(4, 4))
        with pytest.raises(ValueError, match=r"stage 1: dim 6 .*heads\[1\]=4"):
            cfg.plan((4, 4))

    def test_plan_rejects_window_not_dividing_stage_grid(self):
        with pytest.raises(ValueError, match=r"stage 0: token grid 4x4 .*window_size\[0\]=3"):
            SwinConfig(window_size=(3, 3)).plan((4, 4))
        # after one merge the 4x4 grid is 2x2: window 4 no longer fits
        with pytest.raises(ValueError, match=r"stage 1: token grid 2x2 .*window_size\[1\]=4"):
            SwinConfig(merge_between_stages=True).plan((4, 4))
        assert SwinConfig(merge_between_stages=True, window_size=(4, 2)).plan((4, 4)).merges == 1

    def test_plan_rejects_odd_grid_before_merge(self):
        cfg = SwinConfig(depths=(2, 2, 2), heads=(2, 2, 2), window_size=(2, 1, 1),
                         merge_between_stages=True)
        with pytest.raises(ValueError,
                           match="merge_between_stages needs an even token grid at stage 1,"):
            cfg.plan((6, 6))
        assert cfg.plan((8, 8)).merges == 2

    def test_plan_rejects_patch_and_unmerge_mismatch(self):
        with pytest.raises(ValueError, match="patch_size 3"):
            SwinConfig(patch_size=3, window_size=(1, 1)).plan((4, 4))
        # patch 2 scatters each token to 2x2 positions: dim 6 has no 4 groups
        with pytest.raises(ValueError, match="final token dim 6"):
            SwinConfig(embed_dim=6, heads=(2, 2), window_size=(2, 2), patch_size=2).plan((4, 4))

    @pytest.mark.parametrize("cfg", [SwinConfig(depths=(), heads=(), window_size=()),
                                     SwinConfig(heads=(0, 4)),
                                     SwinConfig(window_size=(4, 0))])
    def test_empty_or_zero_sizes_rejected(self, cfg):
        with pytest.raises(ValueError, match="positive"):
            cfg.plan((4, 4))
