"""Windowed self-attention encoder over tokenized feature maps.

Tokens travel as ``[B, gh*gw, D]`` Tensors, row-major over each image's
token grid, with the grid ``(gh, gw)`` passed beside them as plain ints.
The windows of every image fold into one ``[B*numWin, M^2, D]`` axis, so
one call encodes B maps; every matmul keeps one GEMM per leading index, so
each image's result does not depend on B.  Tokens are non-overlapping
patches of the blended feature map, linearly projected with no positional
embedding.  Blocks come in pairs: plain window attention, then
shifted-window attention with a cyclic shift and an additive mask that
keeps tokens from different pre-shift regions apart.  Learned per-head
relative position biases are shared across windows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import LayerNorm, Linear, Module, Parameter
from .tensor import Tensor

MASK_NEG = -1e9  # additive surrogate for minus infinity, softmax-safe


@dataclass(frozen=True)
class SwinPlan:
    """What the encoder builds and the cost model counts."""
    grid: tuple[int, int]   # token grid after patch embedding
    merges: int             # patch merges, one after each of the first stages
    dims: tuple[int, ...]   # token dim of each stage
    map_channels: int       # channels of the unmerged output map


@dataclass
class SwinConfig:
    embed_dim: int = 64
    depths: tuple[int, ...] = (2, 2)
    heads: tuple[int, ...] = (4, 4)
    window_size: tuple[int, ...] = (4, 4)
    mlp_ratio: int = 4
    patch_size: int = 1
    merge_between_stages: bool | str = "auto"  # auto: merge when token grid >= 8

    def validate(self):
        if any(d % 2 for d in self.depths):
            raise ValueError(f"depths must be even (W-MSA/SW-MSA pairs), got {self.depths}")
        if not 0 < len(self.depths) == len(self.heads) == len(self.window_size):
            raise ValueError(f"depths must hold a positive number of stages, as many as "
                             f"heads and window_size, got {self.depths}, {self.heads}, "
                             f"{self.window_size}")
        for name in ("embed_dim", "mlp_ratio", "patch_size", "heads", "window_size"):
            if np.min(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if isinstance(self.merge_between_stages, str) and self.merge_between_stages != "auto":
            raise ValueError("merge_between_stages must be true, false or 'auto', "
                             f"got {self.merge_between_stages!r}")

    def plan(self, grid_hw: tuple[int, int]) -> SwinPlan:
        """Stage layout for a feature map of ``grid_hw`` positions: the one
        place the merge rule and the output map width are decided.  Raises
        ValueError, naming the field, for an encoder that cannot run there."""
        self.validate()
        p = self.patch_size
        if grid_hw[0] % p or grid_hw[1] % p:
            raise ValueError(f"patch_size {p} does not divide the "
                             f"{grid_hw[0]}x{grid_hw[1]} feature map")
        gh, gw = grid_hw[0] // p, grid_hw[1] // p
        merge = self.merge_between_stages
        if merge == "auto":
            merge = min(gh, gw) >= 8
        merges = len(self.depths) - 1 if merge else 0
        dims = tuple(self.embed_dim * 2 ** min(s, merges) for s in range(len(self.depths)))
        sh, sw = gh, gw
        for s, (dim, heads, m) in enumerate(zip(dims, self.heads, self.window_size)):
            if dim % heads:
                raise ValueError(f"heads must divide each stage's dim; stage {s}: dim {dim} "
                                 f"(embed_dim {self.embed_dim}) not divisible by "
                                 f"heads[{s}]={heads}")
            if sh % m or sw % m:
                raise ValueError(f"window_size must divide each stage's token grid; stage "
                                 f"{s}: token grid {sh}x{sw} not divisible by "
                                 f"window_size[{s}]={m}")
            if s < merges:
                if sh % 2 or sw % 2:
                    raise ValueError(f"merge_between_stages needs an even token grid at "
                                     f"stage {s}, got {sh}x{sw}")
                sh, sw = sh // 2, sw // 2
        # merging doubles dim, each depth-to-space unmerge divides it by 4
        unmerge = 4 ** merges * p ** 2
        if dims[-1] % unmerge:
            raise ValueError(f"embed_dim {self.embed_dim} gives a final token dim "
                             f"{dims[-1]} that does not unmerge to a map: not divisible "
                             f"by {unmerge}")
        return SwinPlan(grid=(gh, gw), merges=merges, dims=dims,
                        map_channels=dims[-1] // unmerge)


def build_relative_index(m: int) -> np.ndarray:
    """Map token pairs (i, j) in an MxM window to bias-table rows.

    Row is (dy + M - 1) * (2M - 1) + (dx + M - 1) for coordinate difference
    (dy, dx) between tokens i and j.
    """
    ys, xs = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    coords = np.stack([ys.reshape(-1), xs.reshape(-1)], axis=1)  # [M^2, 2]
    delta = coords[:, None, :] - coords[None, :, :] + (m - 1)
    return (delta[:, :, 0] * (2 * m - 1) + delta[:, :, 1]).astype(np.int64)


def window_partition(tokens: Tensor, gh: int, gw: int, m: int) -> Tensor:
    """[B, gh*gw, D] -> [B*numWin, M^2, D] over non-overlapping MxM windows,
    image-major."""
    if gh % m or gw % m:
        raise ValueError(f"grid {gh}x{gw} not divisible by window size {m}")
    b, _, d = tokens.shape
    x = tokens.reshape(b, gh // m, m, gw // m, m, d)
    x = T.transpose(x, (0, 1, 3, 2, 4, 5))
    return x.reshape(b * (gh // m) * (gw // m), m * m, d)


def window_reverse(windows: Tensor, gh: int, gw: int) -> Tensor:
    """Exact inverse of :func:`window_partition`: [B*numWin, M^2, D] -> [B, gh*gw, D]."""
    _, m2, d = windows.shape
    m = int(math.isqrt(m2))
    x = windows.reshape(-1, gh // m, gw // m, m, m, d)
    x = T.transpose(x, (0, 1, 3, 2, 4, 5))
    return x.reshape(-1, gh * gw, d)


@functools.lru_cache(maxsize=None)
def build_shift_mask(gh: int, gw: int, m: int, shift: int) -> np.ndarray:
    """Additive attention mask for shifted windows, [numWin, M^2, M^2].

    Standard 3x3 band construction in post-shift coordinates: tokens from
    different pre-shift regions get MASK_NEG, everything else 0.  Built
    once per grid and shared, so the array is read-only.
    """
    if not (0 < shift < m):
        raise ValueError(f"shift must satisfy 0 < shift < {m}, got {shift}")
    regions = np.zeros((gh, gw), dtype=np.int64)
    cnt = 0
    for hs in (slice(0, gh - m), slice(gh - m, gh - shift), slice(gh - shift, gh)):
        for ws in (slice(0, gw - m), slice(gw - m, gw - shift), slice(gw - shift, gw)):
            regions[hs, ws] = cnt
            cnt += 1
    win = regions.reshape(gh // m, m, gw // m, m).transpose(0, 2, 1, 3)
    win = win.reshape(-1, m * m)  # [numWin, M^2] region label per token
    mask = np.where(win[:, :, None] != win[:, None, :], MASK_NEG, 0.0)
    mask.flags.writeable = False
    return mask


class WindowAttention(Module):
    """Multi-head attention inside each MxM window, plus a learned
    relative-position bias per head that all windows share."""

    def __init__(self, dim: int, heads: int, m: int):
        super().__init__()
        if dim % heads:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.m = m
        self.wq = Parameter((dim, dim), init=("trunc_normal", 0.02))
        self.wk = Parameter((dim, dim), init=("trunc_normal", 0.02))
        self.wv = Parameter((dim, dim), init=("trunc_normal", 0.02))
        self.wo = Parameter((dim, dim), init=("trunc_normal", 0.02))
        self.bq = Parameter((dim,))
        self.bk = Parameter((dim,))
        self.bv = Parameter((dim,))
        self.bo = Parameter((dim,))
        self.bias_table = Parameter(((2 * m - 1) ** 2, heads))
        self._index = build_relative_index(m)  # [M^2, M^2] rows into bias_table

    def forward(self, windows: Tensor, mask: np.ndarray | None = None
                ) -> tuple[Tensor, Tensor]:
        """``windows`` is [numWin, M^2, D]; weight matrices apply as x @ W and
        ``mask`` is an additive [numWin, M^2, M^2] array.  Returns (output
        windows, attention probabilities [numWin, heads, M^2, M^2])."""
        num_win, m2, dim = windows.shape
        heads = self.heads
        dh = dim // heads

        def split_heads(x):
            return T.transpose(x.reshape(num_win, m2, heads, dh), (0, 2, 1, 3))

        q = split_heads(T.matmul(windows, self.wq) + self.bq)
        k = split_heads(T.matmul(windows, self.wk) + self.bk)
        v = split_heads(T.matmul(windows, self.wv) + self.bv)
        logits = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
        bias = self.bias_table[self._index.reshape(-1)]             # [M^4, heads]
        logits = logits + T.transpose(bias.reshape(m2, m2, -1), (2, 0, 1))
        if mask is not None:
            logits = logits + Tensor(mask[:, None, :, :], dtype=logits.dtype)
        attn = T.softmax(logits, axis=-1)                            # [nW, heads, M^2, M^2]
        out = T.transpose(T.matmul(attn, v), (0, 2, 1, 3)).reshape(num_win, m2, dim)
        return T.matmul(out, self.wo) + self.bo, attn


class Mlp(Module):
    def __init__(self, dim: int, ratio: int):
        super().__init__()
        self.fc1 = Linear(dim, dim * ratio)
        self.fc2 = Linear(dim * ratio, dim)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2.forward(T.gelu(self.fc1.forward(x)))


class SwinBlockPair(Module):
    """One W-MSA block followed by one SW-MSA block, pre-norm residuals."""

    def __init__(self, dim: int, heads: int, m: int, mlp_ratio: int):
        super().__init__()
        self.m = m
        self.shift = m // 2
        self.norm1a = LayerNorm(dim)
        self.attn1 = WindowAttention(dim, heads, m)
        self.norm1b = LayerNorm(dim)
        self.mlp1 = Mlp(dim, mlp_ratio)
        self.norm2a = LayerNorm(dim)
        self.attn2 = WindowAttention(dim, heads, m)
        self.norm2b = LayerNorm(dim)
        self.mlp2 = Mlp(dim, mlp_ratio)

    def _attend(self, x: Tensor, gh: int, gw: int, attn: WindowAttention,
                norm: LayerNorm, shift: int) -> Tensor:
        b, n, d = x.shape
        x = norm.forward(x)
        mask = None
        if shift:
            x = T.roll(x.reshape(b, gh, gw, d), (-shift, -shift), (1, 2)).reshape(b, n, d)
            mask = np.tile(build_shift_mask(gh, gw, self.m, shift), (b, 1, 1))
        out, _ = attn.forward(window_partition(x, gh, gw, self.m), mask=mask)
        out = window_reverse(out, gh, gw)
        if shift:
            out = T.roll(out.reshape(b, gh, gw, d), (shift, shift), (1, 2)).reshape(b, n, d)
        return out

    def forward(self, x: Tensor, gh: int, gw: int) -> Tensor:
        """[B, gh*gw, D] tokens -> [B, gh*gw, D] tokens."""
        x = x + self._attend(x, gh, gw, self.attn1, self.norm1a, shift=0)
        x = x + self.mlp1.forward(self.norm1b.forward(x))
        x = x + self._attend(x, gh, gw, self.attn2, self.norm2a, shift=self.shift)
        return x + self.mlp2.forward(self.norm2b.forward(x))


class PatchEmbed(Module):
    """Non-overlapping PxP patches, flattened and linearly projected.

    No positional embedding is added; window attention carries relative
    position information through its bias table.
    """

    def __init__(self, cin: int, patch: int, dim: int):
        super().__init__()
        self.patch = patch
        self.proj = Linear(cin * patch * patch, dim)

    def forward(self, feature: Tensor) -> Tensor:
        """[B, C, H, W] maps -> [B, (H/P)*(W/P), D] tokens, row-major over patches."""
        b, c, h, w = feature.shape
        p = self.patch
        if h % p or w % p:
            raise ValueError(f"feature {h}x{w} not divisible by patch size {p}")
        gh, gw = h // p, w // p
        x = feature.reshape(b, c, gh, p, gw, p)
        x = T.transpose(x, (0, 2, 4, 1, 3, 5)).reshape(b, gh * gw, c * p * p)
        return self.proj.forward(x)


class PatchMerging(Module):
    """2x2 token neighbourhoods -> concat(4D) -> LN -> linear to 2D."""

    def __init__(self, dim: int):
        super().__init__()
        self.norm = LayerNorm(4 * dim)
        self.reduce = Linear(4 * dim, 2 * dim, bias=False)

    def forward(self, tokens: Tensor, gh: int, gw: int) -> Tensor:
        """[B, gh*gw, D] tokens -> [B, (gh/2)*(gw/2), 2D] tokens."""
        if gh % 2 or gw % 2:
            raise ValueError(f"patch merging needs an even grid, got {gh}x{gw}")
        b, _, d = tokens.shape
        x = tokens.reshape(b, gh, gw, d)
        x0 = x[:, 0::2, 0::2]
        x1 = x[:, 1::2, 0::2]
        x2 = x[:, 0::2, 1::2]
        x3 = x[:, 1::2, 1::2]
        merged = T.concat([x0, x1, x2, x3], axis=-1).reshape(b, gh * gw // 4, 4 * d)
        return self.reduce.forward(self.norm.forward(merged))


def _depth_to_space(tokens: Tensor, gh: int, gw: int, factor: int):
    """Scatter channel groups to a factor x factor neighbourhood."""
    b, _, d = tokens.shape
    if d % (factor * factor):
        raise ValueError(f"cannot unmerge token dim {d} by factor {factor}")
    dq = d // (factor * factor)
    x = tokens.reshape(b, gh, gw, factor, factor, dq)  # axes: b, y, x, dx, dy, dq
    x = T.transpose(x, (0, 1, 4, 2, 3, 5))             # b, y, dy, x, dx, dq
    gh, gw = gh * factor, gw * factor
    return x.reshape(b, gh * gw, dq), gh, gw


def unmerge_to_map(tokens: Tensor, gh: int, gw: int, merges: int,
                   patch: int = 1) -> Tensor:
    """[B, gh*gw, D] tokens back to [B, D', H', W'] maps, inverting row-major
    patching and any patch merges (channel groups scatter to 2x2 positions)."""
    for _ in range(merges):
        tokens, gh, gw = _depth_to_space(tokens, gh, gw, 2)
    if patch > 1:
        tokens, gh, gw = _depth_to_space(tokens, gh, gw, patch)
    b, _, d = tokens.shape
    return T.transpose(tokens.reshape(b, gh, gw, d), (0, 3, 1, 2))


class _Stage(Module):
    def __init__(self, pairs: list[SwinBlockPair]):
        super().__init__()
        self.pairs = pairs

    def forward(self, x: Tensor, gh: int, gw: int) -> Tensor:
        for pair in self.pairs:
            x = pair.forward(x, gh, gw)
        return x


class SwinEncoder(Module):
    """Patch embedding plus staged W-MSA/SW-MSA block pairs."""

    def __init__(self, cin: int, cfg: SwinConfig, token_grid_hw: tuple[int, int]):
        super().__init__()
        self.cfg = cfg
        self.plan = cfg.plan(token_grid_hw)
        self.patch_embed = PatchEmbed(cin, cfg.patch_size, cfg.embed_dim)
        self.stages = [_Stage([SwinBlockPair(dim, cfg.heads[s], cfg.window_size[s],
                                             cfg.mlp_ratio)
                               for _ in range(cfg.depths[s] // 2)])
                       for s, dim in enumerate(self.plan.dims)]
        self.merges = [PatchMerging(dim) for dim in self.plan.dims[:self.plan.merges]]

    def forward(self, feature: Tensor) -> Tensor:
        """[B, C, H', W'] feature maps -> [B, plan.map_channels, H', W'] maps."""
        x = self.patch_embed.forward(feature)
        p = self.cfg.patch_size
        gh, gw = feature.shape[2] // p, feature.shape[3] // p
        for s, stage in enumerate(self.stages):
            x = stage.forward(x, gh, gw)
            if s < len(self.merges):
                x = self.merges[s].forward(x, gh, gw)
                gh, gw = gh // 2, gw // 2
        return unmerge_to_map(x, gh, gw, len(self.merges), p)
