"""Analytic model cost accounting: exact parameter counts and forward-pass
FLOPs from the configuration alone.

Conventions: one multiply-add counts as 2 operations; only dense products
are counted (convolutions, linear projections, attention and pooling
matmuls), not normalizations, activations or elementwise adds.
"""

from __future__ import annotations

from .model import ModelConfig, SnippetSegmenter


def conv_params(cin: int, cout: int, k: int, bias: bool = True) -> int:
    return cout * cin * k * k + (cout if bias else 0)


def conv_flops(cin: int, cout: int, k: int, hout: int, wout: int) -> int:
    return 2 * k * k * cin * cout * hout * wout


def linear_params(cin: int, cout: int, bias: bool = True) -> int:
    return cout * cin + (cout if bias else 0)


def linear_flops(cin: int, cout: int, positions: int = 1) -> int:
    return 2 * cin * cout * positions


def window_attention_flops(n_tokens: int, m: int, dim: int, heads: int) -> int:
    """Windowed attention cost: QK^T and AV per window plus the four
    projections; linear in the token count at fixed window size."""
    d_head = dim // heads
    m2 = m * m
    per_window = 2 * m2 * m2 * d_head * heads * 2 + 4 * linear_flops(dim, dim, m2)
    return (n_tokens // m2) * per_window


def dense_attention_flops(n_tokens: int, dim: int, heads: int) -> int:
    """Cost of full NxN attention over the same tokens (the oracle path)."""
    d_head = dim // heads
    return 2 * n_tokens * n_tokens * d_head * heads * 2 + 4 * linear_flops(dim, dim, n_tokens)


# ---- per-component accounting ----------------------------------------------


def _backbone_counts(cfg: ModelConfig) -> tuple[int, int]:
    bb = cfg.backbone
    c1, c2, c3, c4 = bb.stage_channels
    h, w = cfg.h, cfg.w
    params = conv_params(1, c1, 3)
    flops = conv_flops(1, c1, 3, h // 2, w // 2)
    cin = c1
    res = (h // 2, w // 2)
    for cout in (c2, c3, c4):
        res = (res[0] // 2, res[1] // 2)
        # projection block: conv3x3 stride 2, conv3x3, 1x1 stride-2 shortcut
        params += conv_params(cin, cout, 3) + conv_params(cout, cout, 3) \
            + conv_params(cin, cout, 1)
        flops += conv_flops(cin, cout, 3, *res) + conv_flops(cout, cout, 3, *res) \
            + conv_flops(cin, cout, 1, *res)
        for _ in range(bb.blocks_per_stage - 1):
            params += 2 * conv_params(cout, cout, 3)
            flops += 2 * conv_flops(cout, cout, 3, *res)
        cin = cout
    return params, flops


def _tcm_counts(cfg: ModelConfig) -> tuple[int, int]:
    if not cfg.tcm.enabled:
        return 0, 0
    c = cfg.backbone.stage_channels[3]
    hidden = cfg.tcm.bottleneck(c)
    slot_params = (conv_params(c, 1, 1)            # key
                   + linear_params(c, hidden)      # squeeze
                   + 2 * hidden                    # layer norm
                   + linear_params(hidden, c)      # expand
                   + 1)                            # gate
    unique_slots = (2 if cfg.t > 1 else 1) if cfg.tcm.tied_neighbors else cfg.t
    params = conv_params(c, c, 1) + unique_slots * slot_params
    gh, gw = cfg.grid
    per_slot_flops = (conv_flops(c, c, 1, gh, gw)    # embed
                      + conv_flops(c, 1, 1, gh, gw)  # key
                      + 2 * c * gh * gw              # context pooling
                      + linear_flops(c, hidden) + linear_flops(hidden, c))
    return params, len(cfg.tcm.active_slots(cfg.t)) * per_slot_flops


def _swin_counts(cfg: ModelConfig) -> tuple[int, int]:
    sw = cfg.swin
    c = cfg.backbone.stage_channels[3]
    plan = sw.plan(cfg.grid)
    n = plan.grid[0] * plan.grid[1]
    params = linear_params(c * sw.patch_size ** 2, sw.embed_dim)
    flops = linear_flops(c * sw.patch_size ** 2, sw.embed_dim, n)
    for s, dim in enumerate(plan.dims):
        m = sw.window_size[s]
        heads = sw.heads[s]
        for _ in range(sw.depths[s] // 2):
            # two attention blocks per pair
            attn_p = 4 * dim * dim + 4 * dim + (2 * m - 1) ** 2 * heads
            mlp_p = linear_params(dim, sw.mlp_ratio * dim) + linear_params(sw.mlp_ratio * dim, dim)
            params += 2 * attn_p + 2 * mlp_p + 4 * 2 * dim  # + four layer norms
            flops += 2 * window_attention_flops(n, m, dim, heads)
            flops += 2 * (linear_flops(dim, sw.mlp_ratio * dim, n)
                          + linear_flops(sw.mlp_ratio * dim, dim, n))
        if s < plan.merges:
            params += 2 * 4 * dim + linear_params(4 * dim, 2 * dim, bias=False)
            n //= 4
            flops += linear_flops(4 * dim, 2 * dim, n)
    return params, flops


def _decoder_head_counts(cfg: ModelConfig) -> tuple[int, int, int, int]:
    d_params = d_flops = 0
    res = cfg.grid
    for cin, ch in zip(cfg.decoder_inputs, cfg.decoder.stage_channels):
        res = (res[0] * 2, res[1] * 2)
        d_params += conv_params(cin, ch, 3)
        d_flops += conv_flops(cin, ch, 3, *res)
    last = cfg.decoder.stage_channels[-1]
    h_params = conv_params(last, last, 3) + conv_params(last, 2, 1)
    h_flops = conv_flops(last, last, 3, cfg.h, cfg.w) + conv_flops(last, 2, 1, cfg.h, cfg.w)
    return d_params, d_flops, h_params, h_flops


def component_costs(cfg: ModelConfig) -> dict[str, dict[str, int]]:
    """Per-component analytic (params, flops) for one snippet forward."""
    bb_p, bb_f = _backbone_counts(cfg)
    tcm_p, tcm_f = _tcm_counts(cfg)
    sw_p, sw_f = _swin_counts(cfg)
    d_p, d_f, h_p, h_f = _decoder_head_counts(cfg)
    return {
        "a": {"params": bb_p, "flops": bb_f * len(cfg.frame_slots)},
        "b": {"params": tcm_p, "flops": tcm_f},
        "c": {"params": sw_p, "flops": sw_f},
        "d": {"params": d_p, "flops": d_f},
        "e": {"params": h_p, "flops": h_f},
    }


def count_params_flops(model: SnippetSegmenter) -> tuple[int, int]:
    """Analytic (params, flops) for one forward over one snippet."""
    per = component_costs(model.cfg)
    params = sum(c["params"] for c in per.values())
    flops = sum(c["flops"] for c in per.values())
    return params, flops
