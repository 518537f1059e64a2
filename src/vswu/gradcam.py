"""Gradient-weighted activation heatmaps at the layer before temporal
blending (the center frame's deep backbone feature)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import tensor as T
from .dataset import Snippet
from .model import SnippetSegmenter
from .tensor import Tensor


def gradcam(model: SnippetSegmenter, snippet: Snippet, target_channel: int) -> np.ndarray:
    """Heatmap [H/16, W/16] in [0, 1] for the requested output channel.

    The target scalar is the mean pre-sigmoid logit of the channel inside
    the predicted positive region (whole map when that region is empty);
    channel weights are the spatial mean of its gradient on the center
    frame's deep feature, and the map is the ReLU of the weighted channel
    sum, min-max normalized (an all-zero map stays zero).
    """
    if target_channel not in (0, 1):
        raise ValueError(f"target_channel must be 0 or 1, got {target_channel}")
    if len(snippet.frames) != model.cfg.t:
        raise ValueError(f"expected {model.cfg.t} frames, got {len(snippet.frames)}")
    outs = [model.backbone.forward(Tensor(snippet.frames[i].image))
            for i in model.cfg.frame_slots]
    # the rest of the forward starts from a leaf copy of the center's deep
    # feature, so backward leaves the gradient on it
    center = len(outs) // 2
    feat = Tensor(outs[center].deep.data, requires_grad=True)
    outs[center] = replace(outs[center], deep=feat)
    out = model.forward_features(outs)

    region = (out.probs.data[target_channel] >= 0.5)
    if not region.any():
        region = np.ones_like(region)
    weights = Tensor((region / region.sum()).astype(out.logits.dtype))
    target = (out.logits[target_channel] * weights).sum()
    T.backward(target)

    channel_w = feat.grad.mean(axis=(1, 2))
    cam = np.maximum((channel_w[:, None, None] * feat.data).sum(axis=0), 0.0)
    hi, lo = cam.max(), cam.min()
    if hi == 0.0:
        return cam  # all-zero map stays zero
    if hi > lo:
        return (cam - lo) / (hi - lo)
    return np.ones_like(cam)  # constant positive map: normalization guard
