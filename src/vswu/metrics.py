"""Segmentation quality metrics.

Surface distances use four-connectivity boundaries (image border counts as
outside) and pool the bidirectional nearest-surface distances into one set
before taking the percentile or mean, so HD95 and ASD are symmetric by
construction.  Empty masks make the distance metrics undefined; they are
flagged rather than poisoning aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# int32 elements per block of query-by-column squared distances
_CHUNK = 1 << 18


def _check_pair(pred: np.ndarray, gt: np.ndarray):
    pred = np.asarray(pred).astype(bool)
    gt = np.asarray(gt).astype(bool)
    if pred.shape != gt.shape:
        raise ValueError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    return pred, gt


def dsc(pred: np.ndarray, gt: np.ndarray) -> float:
    """Dice overlap 2|A&B| / (|A|+|B|); two empty masks count as 1.0."""
    pred, gt = _check_pair(pred, gt)
    denom = pred.sum() + gt.sum()
    if denom == 0:
        return 1.0
    return 2.0 * np.logical_and(pred, gt).sum() / denom


def _boundary(mask: np.ndarray) -> np.ndarray:
    """Boolean image of the mask pixels with at least one of their
    4-neighbours outside, or on the image border."""
    mask = np.asarray(mask).astype(bool)
    padded = np.pad(mask, 1, constant_values=False)
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                & padded[1:-1, :-2] & padded[1:-1, 2:])
    return mask & ~interior


def boundary_pixels(mask: np.ndarray) -> np.ndarray:
    """Boundary pixels (see ``_boundary``) as a [K, 2] array of (y, x)
    coordinates."""
    return np.argwhere(_boundary(mask))


def _nearest_distances(points: np.ndarray, boundary: np.ndarray) -> np.ndarray:
    """Euclidean distance from each (y, x) row of ``points`` to the nearest
    pixel of the nonempty boolean image ``boundary``.

    Two scans down the columns that hold a boundary pixel give every row's
    vertical gap to the nearest one in each column (the first pass of
    Felzenszwalb & Huttenlocher's distance transform). A point's squared
    distance is the least dx^2 + gap^2 over those columns: an exact
    integer, so its float64 root is the one a KD-tree returns.
    """
    h = boundary.shape[0]
    cols = np.flatnonzero(boundary.any(axis=0)).astype(np.int32)
    on = boundary[:, cols]
    rows = np.arange(h, dtype=np.int32)[:, None]
    # no boundary pixel above (below) row y reads as at least h away,
    # farther than any real gap
    above = np.maximum.accumulate(np.where(on, rows, np.int32(-h)), axis=0)
    below = np.minimum.accumulate(np.where(on, rows, np.int32(2 * h))[::-1], axis=0)[::-1]
    gap = np.minimum(rows - above, below - rows)
    gap *= gap
    points = points.astype(np.int32)
    out = np.empty(len(points))
    step = max(1, _CHUNK // len(cols))
    for i in range(0, len(points), step):
        y, x = points[i:i + step].T
        d2 = x[:, None] - cols
        d2 *= d2
        d2 += gap[y]
        np.sqrt(d2.min(axis=1), out=out[i:i + step])
    return out


def _pooled_surface_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Distances from each boundary pixel of ``a`` to ``b``'s boundary, then
    from each of ``b``'s to ``a``'s, each in ``argwhere`` order; None when
    either boundary is empty."""
    ba = _boundary(a)
    bb = _boundary(b)
    pa = np.argwhere(ba)
    pb = np.argwhere(bb)
    if len(pa) == 0 or len(pb) == 0:
        return None
    return np.concatenate([_nearest_distances(pa, bb), _nearest_distances(pb, ba)])


def hd95(pred: np.ndarray, gt: np.ndarray) -> float | None:
    """95th percentile of pooled bidirectional surface distances, in
    pixels; None when either mask is empty."""
    pred, gt = _check_pair(pred, gt)
    pooled = _pooled_surface_distances(pred, gt)
    if pooled is None:
        return None
    return float(np.percentile(pooled, 95))


def asd(pred: np.ndarray, gt: np.ndarray) -> float | None:
    """Mean pooled bidirectional surface distance; None when either mask
    is empty."""
    pred, gt = _check_pair(pred, gt)
    pooled = _pooled_surface_distances(pred, gt)
    if pooled is None:
        return None
    return float(pooled.mean())


def sens_spec(pred: np.ndarray, gt: np.ndarray) -> tuple[float, float]:
    """(sensitivity, specificity); empty denominators fall back to 1.0."""
    pred, gt = _check_pair(pred, gt)
    tp = np.logical_and(pred, gt).sum()
    tn = np.logical_and(~pred, ~gt).sum()
    fp = np.logical_and(pred, ~gt).sum()
    fn = np.logical_and(~pred, gt).sum()
    sens = tp / (tp + fn) if tp + fn > 0 else 1.0
    spec = tn / (tn + fp) if tn + fp > 0 else 1.0
    return float(sens), float(spec)


CHANNEL_NAMES = ("bolus", "pharynx")


@dataclass
class ChannelMetrics:
    dsc: float
    hd95: float | None
    asd: float | None
    sensitivity: float
    specificity: float
    n_pairs: int = 1
    n_distance_undefined: int = 0

    def to_dict(self) -> dict:
        return {"dsc": self.dsc, "hd95": self.hd95, "asd": self.asd,
                "sensitivity": self.sensitivity, "specificity": self.specificity,
                "n_pairs": self.n_pairs,
                "n_distance_undefined": self.n_distance_undefined}


@dataclass
class MetricsReport:
    channels: dict[str, ChannelMetrics]
    params: int = 0
    flops: int = 0
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"channels": {k: v.to_dict() for k, v in self.channels.items()},
                "model": {"params": self.params, "flops": self.flops},
                "notes": self.notes}


def evaluate_pairs(pairs_by_channel: dict[str, list[tuple[np.ndarray, np.ndarray]]],
                   params: int = 0, flops: int = 0) -> MetricsReport:
    """Aggregate per-channel metrics over (pred, gt) mask pairs.

    DSC/sensitivity/specificity average over all pairs; HD95/ASD average
    over the pairs where both masks are nonempty, with the undefined count
    recorded.
    """
    channels = {}
    for name, pairs in pairs_by_channel.items():
        dscs, senss, specs, hd95s, asds = [], [], [], [], []
        undefined = 0
        for pred, gt in pairs:
            dscs.append(dsc(pred, gt))
            se, sp = sens_spec(pred, gt)
            senss.append(se)
            specs.append(sp)
            h = hd95(pred, gt)
            a = asd(pred, gt)
            if h is None:
                undefined += 1
            else:
                hd95s.append(h)
                asds.append(a)
        channels[name] = ChannelMetrics(
            dsc=float(np.mean(dscs)),
            hd95=float(np.mean(hd95s)) if hd95s else None,
            asd=float(np.mean(asds)) if asds else None,
            sensitivity=float(np.mean(senss)),
            specificity=float(np.mean(specs)),
            n_pairs=len(pairs),
            n_distance_undefined=undefined)
    return MetricsReport(
        channels=channels, params=params, flops=flops,
        notes={"flop_convention": "multiply+add counted as 2 operations",
               "distance_units": "pixels at input resolution"})
