"""Adam optimizer and the plateau learning-rate schedule."""

from __future__ import annotations

import numpy as np

from .nn import Parameter


class Adam:
    """Bias-corrected Adam over a named parameter dict.

    Frozen parameters (requires_grad False) are excluded from both updates
    and state.
    """

    def __init__(self, params: dict[str, Parameter], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = {n: p for n, p in params.items() if p.requires_grad}
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        # one scratch pair per dtype, each row as long as its largest parameter
        sizes: dict[np.dtype, int] = {}
        for p in self.params.values():
            sizes[p.dtype] = max(sizes.get(p.dtype, 0), p.size)
        self._scratch = {dt: np.empty((2, n), dt) for dt, n in sizes.items()}

    def step(self):
        """One update, in place: ``m``, ``v`` and ``p.data`` keep their
        arrays.  Elementwise it computes, in this order,
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
        ``p = p - lr*(m/c1) / (sqrt(v/c2) + eps)``."""
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        for n, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape "
                                 f"{p.data.shape} for {n}")
            m, v = self.m[n], self.v[n]
            s, u = (row[:m.size].reshape(m.shape) for row in self._scratch[m.dtype])
            np.multiply(m, b1, out=m)
            m += np.multiply(g, 1.0 - b1, out=s)
            np.multiply(v, b2, out=v)
            np.multiply(g, 1.0 - b2, out=s)
            v += np.multiply(s, g, out=s)
            np.divide(m, c1, out=s)
            np.multiply(s, self.lr, out=s)
            np.divide(v, c2, out=u)
            np.sqrt(u, out=u)
            u += self.eps
            s /= u
            p.data -= s

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


class PlateauScheduler:
    """Multiply lr by ``factor`` after ``patience`` consecutive epochs
    without validation-loss improvement; any improvement or a decay resets
    the counter."""

    def __init__(self, lr: float, patience: int = 20, factor: float = 0.8,
                 threshold: float = 1e-5):
        self.lr = lr
        self.patience = patience
        self.factor = factor
        self.threshold = threshold
        self.best = float("inf")
        self.stagnant = 0

    def step(self, val_loss: float) -> float:
        if val_loss < self.best - self.threshold:
            self.best = val_loss
            self.stagnant = 0
        else:
            self.stagnant += 1
            if self.stagnant >= self.patience:
                self.lr *= self.factor
                self.stagnant = 0
        return self.lr
