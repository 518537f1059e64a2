"""Segmentation quality metrics.

Surface distances use four-connectivity boundaries (image border counts as
outside) and pool the bidirectional nearest-surface distances into one set
before taking the percentile or mean, so HD95 and ASD are symmetric by
construction.  Empty masks make the distance metrics undefined; they are
flagged rather than poisoning aggregates.
"""

from __future__ import annotations

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
    padded = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
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


def pair_row(pred: np.ndarray, gt: np.ndarray) -> tuple:
    """(dsc, sensitivity, specificity, hd95, asd) of one mask pair; the
    two distances are None when either mask is empty."""
    return (dsc(pred, gt), *sens_spec(pred, gt), hd95(pred, gt), asd(pred, gt))


def summarize(rows: list, params: int, flops: int) -> dict:
    """The metrics report of per-snippet ``rows``, each one :func:`pair_row`
    per channel of ``CHANNEL_NAMES``: DSC, sensitivity and specificity
    averaged over all pairs, HD95 and ASD over the pairs where both masks
    are nonempty, with the undefined count."""
    channels = {}
    for c, name in enumerate(CHANNEL_NAMES):
        pairs = [r[c] for r in rows]
        defined = [p for p in pairs if p[3] is not None]
        mean = {k: float(np.mean([p[i] for p in pairs]))
                for i, k in enumerate(("dsc", "sensitivity", "specificity"))}
        for i, k in ((3, "hd95"), (4, "asd")):
            mean[k] = float(np.mean([p[i] for p in defined])) if defined else None
        channels[name] = {**mean, "n_pairs": len(pairs),
                          "n_distance_undefined": len(pairs) - len(defined)}
    return {"channels": channels, "model": {"params": params, "flops": flops},
            "notes": {"flop_convention": "multiply+add counted as 2 operations",
                      "distance_units": "pixels at input resolution"}}
