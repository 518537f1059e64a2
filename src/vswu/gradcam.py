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
    sum, min-max normalized (an all-zero map stays zero).  Every
    parameter's ``.grad`` is None on return: the reverse pass reaches the
    blender and later components, but only the feature's gradient is read.
    """
    if target_channel not in (0, 1):
        raise ValueError(f"target_channel must be 0 or 1, got {target_channel}")
    outs = [model.backbone.forward(Tensor(f)) for f in model.slot_frames(snippet.frames)]
    # the rest of the forward starts from leaf copies of the backbone
    # features, so the reverse pass stops at the blender and the decoder
    # skips; only the center's deep feature takes a gradient
    center = len(outs) // 2
    outs = [replace(o, s1=Tensor(o.s1.data), s2=Tensor(o.s2.data), s3=Tensor(o.s3.data),
                    deep=Tensor(o.deep.data, requires_grad=i == center))
            for i, o in enumerate(outs)]
    feat = outs[center].deep
    out = model.forward_features([outs])[0]

    region = (out.probs.data[target_channel] >= 0.5)
    if not region.any():
        region = np.ones_like(region)
    weights = Tensor((region / region.sum()).astype(out.logits.dtype))
    target = (out.logits[target_channel] * weights).sum()
    T.backward(target)

    channel_w = feat.grad.mean(axis=(1, 2))
    for _, p in model.named_parameters():
        p.grad = None
    cam = np.maximum((channel_w[:, None, None] * feat.data).sum(axis=0), 0.0)
    hi, lo = cam.max(), cam.min()
    if hi == 0.0:
        return cam  # all-zero map stays zero
    if hi > lo:
        return (cam - lo) / (hi - lo)
    return np.ones_like(cam)  # constant positive map: normalization guard
