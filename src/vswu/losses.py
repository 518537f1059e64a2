"""Training objective: equal-weighted binary cross entropy plus Dice loss,
averaged over the two label channels."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

CLAMP = 1e-7
DICE_EPS = 1.0


def bce_loss(p: Tensor, y: np.ndarray) -> Tensor:
    """Mean pixelwise -[y ln p + (1-y) ln(1-p)] with p clamped away from 0/1."""
    p = T.clip(p, CLAMP, 1.0 - CLAMP)
    y = Tensor(y, dtype=p.dtype)
    return -(y * T.log(p) + (1.0 - y) * T.log(1.0 - p)).mean()


def dice_loss(p: Tensor, y: np.ndarray) -> Tensor:
    """1 - (2*sum(p*y) + eps) / (sum(p) + sum(y) + eps); eps keeps empty
    channels (no visible bolus) at zero loss for an all-zero prediction."""
    y = Tensor(y, dtype=p.dtype)
    inter = (p * y).sum()
    return 1.0 - (2.0 * inter + DICE_EPS) / (p.sum() + y.sum() + DICE_EPS)


def combined_loss(probs: Tensor, label: np.ndarray) -> Tensor:
    """Mean over channels of 0.5*BCE + 0.5*Dice."""
    label = np.asarray(label)
    if probs.shape != label.shape:
        raise ValueError(f"prediction {probs.shape} vs label {label.shape}")
    if not np.isin(label, (0.0, 1.0)).all():
        raise ValueError("label values must be exactly 0 or 1")
    total = None
    channels = probs.shape[0]
    for c in range(channels):
        p = probs[c]
        term = 0.5 * bce_loss(p, label[c]) + 0.5 * dice_loss(p, label[c])
        total = term if total is None else total + term
    return total * (1.0 / channels)
