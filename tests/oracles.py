"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately written from first principles (plain numpy
loops, all-pairs scans) and shares no code with the library paths it
checks.  The training references run the library's model forward and
reverse pass, but one batch in one graph in one process, with the
textbook out-of-place Adam update.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def naive_conv2d(x, k, stride, pad, bias=None):
    """Six-loop reference convolution (cross-correlation)."""
    c_in, h, w = x.shape
    c_out, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((c_out, ho, wo))
    for co in range(c_out):
        for oy in range(ho):
            for ox in range(wo):
                acc = 0.0
                for ci in range(c_in):
                    for i in range(kh):
                        for j in range(kw):
                            acc += xp[ci, oy * stride + i, ox * stride + j] * k[co, ci, i, j]
                out[co, oy, ox] = acc + (bias[co] if bias is not None else 0.0)
    return out


def reference_conv2d(x, k, g, stride, pad, bias=None):
    """Straightforward im2col convolution and its backward.

    Pads with ``np.pad``, takes the columns from a transposed
    ``sliding_window_view``, forms the kernel gradient as ``g @ cols.T`` and
    scatters the column gradient one strided tap slab at a time, in
    ``(i, j)`` order.  ``g`` is the gradient of the output.  Returns
    ``(out, dx, dk, db)``; ``db`` is None without a bias.
    """
    cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    if kh == kw == 1:
        cols = xp[:, ::stride, ::stride].reshape(cin, ho * wo)
    else:
        win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
        cols = np.ascontiguousarray(win.transpose(0, 3, 4, 1, 2)).reshape(cin * kh * kw,
                                                                           ho * wo)
    w2 = k.reshape(cout, cin * kh * kw)
    out = (w2 @ cols).reshape(cout, ho, wo)
    if bias is not None:
        out = out + bias[:, None, None]
    g2 = g.reshape(cout, ho * wo)
    dk = (g2 @ cols.T).reshape(k.shape)
    dcols = (w2.T @ g2).reshape(cin, kh, kw, ho, wo)
    dxp = np.zeros((cin, h + 2 * pad, w + 2 * pad), dtype=g.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcols[:, i, j]
    dx = dxp[:, pad:pad + h, pad:pad + w]
    db = g.sum(axis=(1, 2)) if bias is not None else None
    return out, dx, dk, db


def shift_region(coord: int, extent: int, m: int, shift: int) -> int:
    """Band index of a post-shift coordinate in the standard construction."""
    if coord < extent - m:
        return 0
    if coord < extent - shift:
        return 1
    return 2


def dense_swmsa_oracle(tokens, gh, gw, m, shift, heads, wq, wk, wv, wo,
                       bias_table, bq=None, bk=None, bv=None, bo=None):
    """Dense masked attention equivalent of one shifted-window attention.

    Rolls the grid, computes full NxN attention per head with pairs in
    different windows or different pre-shift regions excluded, applies the
    relative position bias by in-window coordinate difference, then rolls
    back.  Pure numpy, no library code.
    """
    d = tokens.shape[-1]
    dh = d // heads
    x = tokens.reshape(gh, gw, d)
    xs = np.roll(x, (-shift, -shift), (0, 1)).reshape(gh * gw, d)

    q = xs @ wq + (bq if bq is not None else 0.0)
    k = xs @ wk + (bk if bk is not None else 0.0)
    v = xs @ wv + (bv if bv is not None else 0.0)

    n = gh * gw
    out = np.zeros((n, d))
    coords = [(i // gw, i % gw) for i in range(n)]
    for h in range(heads):
        qh = q[:, h * dh:(h + 1) * dh]
        kh_ = k[:, h * dh:(h + 1) * dh]
        vh = v[:, h * dh:(h + 1) * dh]
        for i in range(n):
            yi, xi = coords[i]
            win_i = (yi // m, xi // m)
            reg_i = (shift_region(yi, gh, m, shift), shift_region(xi, gw, m, shift))
            logits, allowed = [], []
            for j in range(n):
                yj, xj = coords[j]
                if (yj // m, xj // m) != win_i:
                    continue
                if (shift_region(yj, gh, m, shift), shift_region(xj, gw, m, shift)) != reg_i:
                    continue
                dy = (yi % m) - (yj % m) + m - 1
                dx = (xi % m) - (xj % m) + m - 1
                bias = bias_table[dy * (2 * m - 1) + dx, h]
                logits.append(float(qh[i] @ kh_[j]) / np.sqrt(dh) + bias)
                allowed.append(j)
            logits = np.array(logits)
            weights = np.exp(logits - logits.max())
            weights /= weights.sum()
            for w_ij, j in zip(weights, allowed):
                out[i, h * dh:(h + 1) * dh] += w_ij * vh[j]

    out = out @ wo + (bo if bo is not None else 0.0)
    return np.roll(out.reshape(gh, gw, d), (shift, shift), (0, 1)).reshape(n, d)


def boundary_pixels_loop(mask):
    """Four-connectivity boundary by explicit neighbour checks."""
    h, w = mask.shape
    pts = []
    for y in range(h):
        for x in range(w):
            if not mask[y, x]:
                continue
            on_border = y == 0 or x == 0 or y == h - 1 or x == w - 1
            if on_border:
                pts.append((y, x))
                continue
            for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                if not mask[y + dy, x + dx]:
                    pts.append((y, x))
                    break
    return pts


def surface_distances_allpairs(a, b):
    """All-pairs pooled bidirectional boundary distances, or None."""
    pa = boundary_pixels_loop(a)
    pb = boundary_pixels_loop(b)
    if not pa or not pb:
        return None
    pooled = []
    for y, x in pa:
        pooled.append(min(np.hypot(y - v, x - u) for v, u in pb))
    for v, u in pb:
        pooled.append(min(np.hypot(y - v, x - u) for y, x in pa))
    return np.array(pooled)


def kdtree_surface_distances(a, b):
    """Pooled bidirectional boundary distances from scipy KD-tree queries,
    a→b then b→a, each in row-major boundary order; None when either
    boundary is empty."""
    from scipy.spatial import cKDTree
    pa = np.array(boundary_pixels_loop(a)).reshape(-1, 2)
    pb = np.array(boundary_pixels_loop(b)).reshape(-1, 2)
    if len(pa) == 0 or len(pb) == 0:
        return None
    return np.concatenate([cKDTree(pb).query(pa)[0], cKDTree(pa).query(pb)[0]])


def confusion_counts(pred, gt):
    tp = fp = tn = fn = 0
    h, w = pred.shape
    for y in range(h):
        for x in range(w):
            if pred[y, x] and gt[y, x]:
                tp += 1
            elif pred[y, x] and not gt[y, x]:
                fp += 1
            elif not pred[y, x] and gt[y, x]:
                fn += 1
            else:
                tn += 1
    return tp, fp, tn, fn


def reference_adam_step(data, g, m, v, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The out-of-place bias-corrected Adam update; returns new
    ``(data, m, v)`` arrays for optimizer step number ``step``."""
    c1 = 1.0 - b1 ** step
    c2 = 1.0 - b2 ** step
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    return data - lr * (m / c1) / (np.sqrt(v / c2) + eps), m, v


def reference_gradcam(model, snippet, target_channel):
    """The heatmap with the reverse pass run through the whole snippet
    graph, every frame's backbone included; only the center frame's deep
    feature is swapped for a leaf copy.  Leaves ``.grad`` on every
    parameter it reaches."""
    from dataclasses import replace

    from vswu import tensor as T

    outs = [model.backbone.forward(T.Tensor(snippet.frames[i]))
            for i in model.cfg.frame_slots]
    center = len(outs) // 2
    feat = T.Tensor(outs[center].deep.data, requires_grad=True)
    outs[center] = replace(outs[center], deep=feat)
    out = model.forward_features([outs])[0]
    region = (out.probs.data[target_channel] >= 0.5)
    if not region.any():
        region = np.ones_like(region)
    weights = T.Tensor((region / region.sum()).astype(out.logits.dtype))
    T.backward((out.logits[target_channel] * weights).sum())
    channel_w = feat.grad.mean(axis=(1, 2))
    cam = np.maximum((channel_w[:, None, None] * feat.data).sum(axis=0), 0.0)
    hi, lo = cam.max(), cam.min()
    if hi == 0.0:
        return cam
    if hi > lo:
        return (cam - lo) / (hi - lo)
    return np.ones_like(cam)


def reference_batch_grads(model, snippets):
    """One batch in one graph: ``((l1 + l2) + ...) * (1/n)`` over the
    snippets' losses and a single backward from parameter gradients of
    None.  Returns ``(loss, {name: grad})`` for the trainable parameters
    (``None`` where no gradient arrived)."""
    from vswu import tensor as T
    from vswu.losses import combined_loss

    params = [(n, p) for n, p in model.named_parameters() if p.requires_grad]
    for _, p in params:
        p.grad = None
    total = None
    for s in snippets:
        loss = combined_loss(model.forward([T.Tensor(f) for f in s.frames]).probs,
                             s.label)
        total = loss if total is None else total + loss
    total = total * (1.0 / len(snippets))
    T.backward(total)
    return total.data, {n: p.grad for n, p in params}


def reference_fit(model, train, val, cfg):
    """The serial epoch loop: every batch through :func:`reference_batch_grads`,
    :func:`reference_adam_step` on each trainable parameter, validation by
    per-snippet ``predict``.  Returns the log rows ``fit`` writes."""
    from vswu import rng as vrng
    from vswu import tensor as T
    from vswu.dataset import augment
    from vswu.losses import combined_loss
    from vswu.metrics import dsc
    from vswu.optim import PlateauScheduler

    params = {n: p for n, p in model.named_parameters() if p.requires_grad}
    m = {n: np.zeros_like(p.data) for n, p in params.items()}
    v = {n: np.zeros_like(p.data) for n, p in params.items()}
    lr, step = cfg.lr0, 0
    scheduler = PlateauScheduler(cfg.lr0, patience=cfg.plateau_epochs,
                                 factor=cfg.lr_decay, threshold=cfg.plateau_threshold)
    log = []
    for epoch in range(1, cfg.max_epochs + 1):
        order = vrng.generator(cfg.seed, "shuffle", epoch).permutation(len(train))
        losses = []
        for b0 in range(0, len(train), cfg.batch_size):
            batch = [train[i] if not cfg.augment else
                     augment(train[i], vrng.generator(cfg.seed, "augment", epoch, int(i)))
                     for i in order[b0:b0 + cfg.batch_size]]
            loss, grads = reference_batch_grads(model, batch)
            step += 1
            for n, p in params.items():
                g = grads[n] if grads[n] is not None else np.zeros_like(p.data)
                p.data, m[n], v[n] = reference_adam_step(p.data, g, m[n], v[n], step, lr)
            losses.append(float(loss))
        val_losses, val_dscs = [], []
        with T.no_grad():
            for s in val:
                probs = model.predict(s.frames)
                val_losses.append(float(combined_loss(T.Tensor(probs), s.label).data))
                for c in range(2):
                    val_dscs.append(dsc(probs[c] >= 0.5, s.label[c] >= 0.5))
        val_loss = float(np.mean(val_losses))
        row = {"epoch": epoch, "train_loss": float(np.mean(losses)), "val_loss": val_loss,
               "lr": lr, "val_dsc": float(np.mean(val_dscs))}
        lr = scheduler.step(val_loss)
        log.append(row)
    return log
