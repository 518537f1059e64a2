"""Dense tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array plus an optional gradient.  Every
differentiable kernel records a backward closure on its output; calling
:func:`backward` on a scalar replays the recorded graph in reverse
topological order and accumulates gradients on the leaves that asked for
them.  A graph supports exactly one backward pass, after which it is
consumed.

Precision policy: tensors built from non-float data take a global default
dtype, float32 for training and inference.  Gradient checking runs under
``precision("float64")`` so central differences are trustworthy.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def default_dtype():
    return _DEFAULT_DTYPE


class precision:
    """Context manager switching the default dtype, e.g. ``precision("float64")``."""

    def __init__(self, dtype):
        self.dtype = np.dtype(dtype).type
        if self.dtype not in (np.float32, np.float64):
            raise ValueError(f"unsupported dtype {np.dtype(dtype)}")

    def __enter__(self):
        global _DEFAULT_DTYPE
        self._saved = _DEFAULT_DTYPE
        _DEFAULT_DTYPE = self.dtype
        return self

    def __exit__(self, *exc):
        global _DEFAULT_DTYPE
        _DEFAULT_DTYPE = self._saved
        return False


class no_grad:
    """Context manager that disables graph recording (pure forward)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._saved = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._saved
        return False


class Tensor:
    """N-dimensional array with optional gradient tracking.

    ``data`` is always a numpy float array.  ``grad`` is populated by
    :func:`backward` on leaves with ``requires_grad``.  To read the gradient
    at an intermediate value, run the rest of the forward from a leaf that
    holds its data.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "_consumed")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is not None:
            arr = np.asarray(data, dtype=dtype)
        elif isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
            arr = data
        else:
            arr = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward: Optional[Callable] = None
        self._consumed = False

    # ---- inspection ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # ---- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), neg(self))

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


def _topological(root: Tensor) -> list[Tensor]:
    """Every tensor reachable from ``root``, producers before consumers."""
    nodes: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            nodes.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return nodes


def _leaf_gradients(loss: Tensor) -> Iterator[tuple[Tensor, np.ndarray]]:
    """The reverse pass from ``loss`` as a stream of ``(leaf, g)`` pairs:
    each gradient contribution that reaches a ``requires_grad`` leaf, in
    the order the backward closures produce it.  Interior nodes still sum
    their contributions before their own closure runs; a leaf's are never
    pre-summed.  The graph is consumed as the pass runs: ``loss`` before the
    first closure, each node's closure and saved arrays right after it ran."""
    nodes = _topological(loss)
    loss._consumed = True
    grads = _Pending()
    _accum(grads, loss, np.ones_like(loss.data))
    for node in reversed(nodes):
        g = grads.pop(id(node), None)
        if g is not None:
            node._backward(g, grads)
        node._backward = None
        node._parents = ()
        yield from grads.leaves
        grads.leaves.clear()


def backward(loss: Tensor,
             fold: Optional[Callable[[Iterator[tuple[Tensor, np.ndarray]]], None]] = None
             ) -> None:
    """Reverse-mode pass from a scalar loss.

    Hands the stream of ``(leaf, g)`` contributions, one per gradient that
    reaches a ``requires_grad`` leaf, in the order the pass produces them,
    to ``fold``.  The default folds each onto its leaf as it arrives,
    ``leaf.grad = g if leaf.grad is None else leaf.grad + g``; a ``fold``
    that sends some elsewhere or holds some back (as two-core training does,
    :mod:`vswu.parallel`) must keep each leaf's order to give the same sums.
    The graph is consumed as the pass runs: a second backward on the same
    forward raises, also after one that raised partway.
    """
    if loss._consumed:
        raise RuntimeError("backward already ran on this graph; run a new forward first")
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise RuntimeError("loss was not produced by a recorded graph")
    (fold or _fold_onto_grad)(_leaf_gradients(loss))


def _fold_onto_grad(stream: Iterator[tuple[Tensor, np.ndarray]]) -> None:
    for leaf, g in stream:
        leaf.grad = g if leaf.grad is None else leaf.grad + g


# ---- op plumbing ---------------------------------------------------------


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Pending(dict):
    """Gradients of interior nodes waiting for their backward closure, by
    id, and the leaf contributions the last closure produced, in order."""

    __slots__ = ("leaves",)

    def __init__(self):
        super().__init__()
        self.leaves: list[tuple[Tensor, np.ndarray]] = []


def _accum(grads: _Pending, t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t._backward is None:
        grads.leaves.append((t, g))
        return
    key = id(t)
    if key in grads:
        grads[key] = grads[key] + g
    else:
        grads[key] = g


def _records(parents: Sequence[Tensor]) -> bool:
    """Whether an op on ``parents`` records a graph node: gradients are
    enabled and some parent needs a gradient (every recorded node does)."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _make(out_data: np.ndarray, parents: Sequence[Tensor],
          backward_fn: Optional[Callable]) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out._consumed = False
    if _records(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (adjoint of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---- elementwise kernels -------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out_data = a.data + b.data

    def back(g, grads):
        _accum(grads, a, _unbroadcast(g, a.data.shape))
        _accum(grads, b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out_data = a.data * b.data

    def back(g, grads):
        _accum(grads, a, _unbroadcast(g * b.data, a.data.shape))
        _accum(grads, b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), back)


def div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out_data = a.data / b.data

    def back(g, grads):
        _accum(grads, a, _unbroadcast(g / b.data, a.data.shape))
        _accum(grads, b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(out_data, (a, b), back)


def neg(a) -> Tensor:
    a = _coerce(a)

    def back(g, grads):
        _accum(grads, a, -g)

    return _make(-a.data, (a,), back)


def log(a) -> Tensor:
    a = _coerce(a)

    def back(g, grads):
        _accum(grads, a, g / a.data)

    return _make(np.log(a.data), (a,), back)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes through the interior, zero where clamped."""
    a = _coerce(a)

    def back(g, grads):
        _accum(grads, a, g * ((a.data > lo) & (a.data < hi)))

    return _make(np.clip(a.data, lo, hi), (a,), back)


def relu(a) -> Tensor:
    a = _coerce(a)
    mask = a.data > 0

    def back(g, grads):
        _accum(grads, a, g * mask)

    return _make(a.data * mask, (a,), back)


def sigmoid(a) -> Tensor:
    a = _coerce(a)
    # split by sign to avoid exp overflow on large magnitudes
    pos = a.data >= 0
    e = np.exp(np.where(pos, -a.data, a.data))
    out_data = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))

    def back(g, grads):
        _accum(grads, a, g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), back)


# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, otherwise
# 1 - exp(-x^2) P(|x|) / Q(|x|); U and Q are monic (leading 1 omitted)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERF_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
          9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
          1.65666309194161350182e3, 5.57535340817727675546e2)


def _horner(v: np.ndarray, coefs, monic: bool = False) -> np.ndarray:
    """Cephes ``polevl`` (``p1evl`` when ``monic``), rounding step by step."""
    acc = v + coefs[0] if monic else np.full_like(v, coefs[0])
    for c in coefs[1:]:
        acc *= v
        acc += c
    return acc


def _erf(x: np.ndarray) -> np.ndarray:
    """The error function as ``scipy.special.erf`` computes it: Cephes in
    float64, rounded to ``x``'s dtype (bit-identical for float32 but for a
    nan's sign bit; float64 may differ by 1 ulp where numpy's ``exp`` does
    from libm's).

    Each branch runs only on its own elements. From |x| = 6 up both forms
    round to exactly 1, so clipping there leaves Cephes' x >= 8 branch and
    its overflow guards unreachable.
    """
    a = np.abs(x, dtype=np.float64).ravel()
    np.minimum(a, 6.0, out=a)          # nan stays nan and in neither branch
    small = np.flatnonzero(a <= 1.0)
    large = np.flatnonzero(a > 1.0)
    s = a[small]
    z = s * s
    s *= _horner(z, _ERF_T)
    s /= _horner(z, _ERF_U, monic=True)
    a[small] = s
    s = a[large]
    y = np.exp(-(s * s))
    y *= _horner(s, _ERF_P)
    y /= _horner(s, _ERF_Q, monic=True)
    a[large] = 1.0 - y
    out = a.astype(x.dtype).reshape(x.shape)
    return np.copysign(out, x, out=out)


def gelu(a) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x)."""
    a = _coerce(a)
    phi = 0.5 * (1.0 + _erf(a.data * _INV_SQRT2))
    out_data = a.data * phi

    def back(g, grads):
        dens = np.exp(-0.5 * a.data * a.data) * _INV_SQRT2PI
        _accum(grads, a, g * (phi + a.data * dens))

    return _make(out_data, (a,), back)


# ---- reductions and shape ops --------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _coerce(a)

    def back(g, grads):
        if not keepdims and axis is not None:
            g = np.expand_dims(g, axis)
        _accum(grads, a, np.broadcast_to(g, a.data.shape))

    return _make(np.asarray(a.data.sum(axis=axis, keepdims=keepdims)), (a,), back)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _coerce(a)
    if axis is None:
        n = a.data.size
    elif isinstance(axis, int):
        n = a.data.shape[axis]
    else:
        n = 1
        for ax in axis:
            n *= a.data.shape[ax]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    old = a.data.shape

    def back(g, grads):
        _accum(grads, a, g.reshape(old))

    return _make(a.data.reshape(shape), (a,), back)


def transpose(a, axes) -> Tensor:
    a = _coerce(a)

    def back(g, grads):
        _accum(grads, a, g.transpose(np.argsort(axes)))

    return _make(a.data.transpose(axes), (a,), back)


def getitem(a, key) -> Tensor:
    a = _coerce(a)
    out_data = a.data[key]

    def back(g, grads):
        # C order, not a's: reductions further back sum in layout order, and
        # a one-map split must hand back what a reshape of a C-ordered g does
        full = np.zeros(a.shape, a.dtype)
        np.add.at(full, key, g)
        _accum(grads, a, full)

    return _make(np.ascontiguousarray(out_data), (a,), back)


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [_coerce(p) for p in parts]

    def back(g, grads):
        idx = [slice(None)] * g.ndim
        lo = 0
        for p in parts:
            hi = lo + p.data.shape[axis]
            idx[axis] = slice(lo, hi)
            _accum(grads, p, g[tuple(idx)])
            lo = hi

    return _make(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), back)


def roll(a, shift, axes) -> Tensor:
    a = _coerce(a)

    def back(g, grads):
        _accum(grads, a, np.roll(g, np.negative(shift), axes))

    return _make(np.roll(a.data, shift, axes), (a,), back)


# ---- dense linear algebra --------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul needs 2-d or batched operands, got {a.data.shape} x {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out_data = np.matmul(a.data, b.data)

    def back(g, grads):
        da = np.matmul(g, np.swapaxes(b.data, -1, -2))
        db = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accum(grads, a, _unbroadcast(da, a.data.shape))
        _accum(grads, b, _unbroadcast(db, b.data.shape))

    return _make(out_data, (a, b), back)


def softmax(a, axis: int = -1) -> Tensor:
    """Exp-normalize along ``axis`` with max-subtraction for stability."""
    a = _coerce(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def back(g, grads):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        _accum(grads, a, out_data * (g - dot))

    return _make(out_data, (a,), back)


def layer_norm(a, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then affine."""
    a, gamma, beta = _coerce(a), _coerce(gamma), _coerce(beta)
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gamma.data + beta.data

    def back(g, grads):
        gy = g * gamma.data
        dx = inv * (gy - gy.mean(axis=-1, keepdims=True)
                    - xhat * (gy * xhat).mean(axis=-1, keepdims=True))
        _accum(grads, a, dx)
        red = tuple(range(g.ndim - 1))
        _accum(grads, gamma, (g * xhat).sum(axis=red))
        _accum(grads, beta, g.sum(axis=red))

    return _make(out_data, (a, gamma, beta), back)


# ---- convolution kernels ---------------------------------------------------

# the widest grid whose no-graph forward runs im2col: conv2d's per-tap
# forward and upsample_conv2d's fold pay off only on wider ones
_NARROW = 8


def conv2d(x, k, stride: int = 1, pad: int = 0, bias=None) -> Tensor:
    """Cross-correlation of ``x[C,H,W]`` with ``k[Cout,Cin,kh,kw]``.

    Zero padding, no kernel flip.  Output is ``[Cout, H', W']`` with
    ``H' = (H + 2*pad - kh)//stride + 1``.

    ``x`` is written into a zeroed flat ``[Cin, Hp*Wp + kw-1]`` buffer
    (``Hp = H + 2*pad``, ``Wp = W + 2*pad``) whose first ``Hp*Wp`` columns,
    read as ``xp[Cin, Hp, Wp]``, are the padded input.  Which forward runs
    depends on whether the call records a graph and on the output width:

    - Stride 1, no graph (``no_grad``, or no operand needs a gradient) and
      ``W' > 8``: no im2col columns are built.  Each tap ``(i, j)`` adds
      one GEMM ``k[:, :, i, j] @ flat[:, i*Wp+j : i*Wp+j + H'*Wp]`` to a
      ``[Cout, H'*Wp]`` accumulator whose last ``kw-1`` columns per row
      wrap around and are dropped.  It sums the taps in another order
      than the GEMM below, so it matches it to rounding, not in the bits.
    - Otherwise the forward is one GEMM over channel-major im2col columns
      ``cols[Cin, kh, kw, H', W']``, built with one slab copy
      ``xp[:, i::stride, j::stride]`` per tap: ``k.reshape(Cout, -1) @ cols``
      is already the output in ``[Cout, H'*W']`` order.  On grids at most
      8 wide a 3x3 kernel's wrap columns are at least 20% of every per-tap
      GEMM and the per-call tap-major copy of ``k`` costs as much as a
      GEMM, so the one GEMM is faster there with or without a graph.

    The backward keeps the padded input buffer, the forward's private copy
    of ``x``, and not the columns, which are up to ``kh*kw`` times larger.
    It rebuilds them with the same slab copies for the kernel gradient, the
    tall GEMM ``(cols @ g.T).T``, and drops them before the column gradient
    is allocated, so the gradients are bit-identical to keeping them.

    For stride 1 the input gradient is computed on the padded grid: ``g``
    is widened with zero columns to ``[Cout, H', Wp]``, so tap ``(i, j)`` of
    the column gradient is one contiguous add into a flat
    ``[Cin, Hp*Wp + kw-1]`` buffer at offset ``i*Wp + j``.  The zero
    columns add exact zeros, and every element still sums its taps in
    ``(i, j)`` order.  Stride 2 scatters ``[Cin, H', W']`` slabs into the
    padded input with the same stride.
    """
    x, k = _coerce(x), _coerce(k)
    cin, h, w = x.data.shape
    cout, cin_k, kh, kw = k.data.shape
    if cin != cin_k:
        raise ValueError(f"conv2d channel mismatch: input {x.data.shape} vs kernel {k.data.shape}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d kernel extents must be odd, got {kh}x{kw}")
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError(
            f"conv2d output would be empty: input {x.data.shape}, kernel {k.data.shape}, "
            f"stride={stride}, pad={pad}")

    if bias is not None:
        bias = _coerce(bias)
    parents = (x, k) if bias is None else (x, k, bias)
    hp, wp = h + 2 * pad, w + 2 * pad
    flat = np.zeros((cin, hp * wp + kw - 1), dtype=x.data.dtype)
    xp = flat[:, :hp * wp].reshape(cin, hp, wp)
    xp[:, pad:pad + h, pad:pad + w] = x.data
    if stride == 1 and wo > _NARROW and not _records(parents):
        taps = k.data.transpose(2, 3, 0, 1).copy()  # [kh, kw, Cout, Cin]
        acc = taps[0, 0] @ flat[:, :ho * wp]
        part = np.empty_like(acc)
        for i in range(kh):
            for j in range(kw):
                if i or j:
                    off = i * wp + j
                    acc += np.matmul(taps[i, j], flat[:, off:off + ho * wp], out=part)
        out_data = acc.reshape(cout, ho, wp)[:, :, :wo]
        if bias is not None:
            out_data = out_data + bias.data[:, None, None]
        return _make(out_data, parents, None)

    def im2col():
        cols = np.empty((cin, kh, kw, ho, wo), dtype=xp.dtype)
        for i in range(kh):
            for j in range(kw):
                cols[:, i, j] = xp[:, i:i + stride * ho:stride, j:j + stride * wo:stride]
        return cols.reshape(cin * kh * kw, ho * wo)

    w2 = k.data.reshape(cout, cin * kh * kw)
    out_data = (w2 @ im2col()).reshape(cout, ho, wo)
    if bias is not None:
        out_data = out_data + bias.data[:, None, None]

    def back(g, grads):
        g2 = g.reshape(cout, ho * wo)
        # the rebuilt columns are freed before the column gradient allocates
        _accum(grads, k, (im2col() @ g2.T).T.reshape(k.data.shape))
        if stride == 1:
            gg = np.zeros((cout, ho, wp), dtype=g.dtype)
            gg[:, :, :wo] = g
            dcols = (w2.T @ gg.reshape(cout, ho * wp)).reshape(cin, kh, kw, ho * wp)
            flat = np.zeros((cin, hp * wp + kw - 1), dtype=g.dtype)
            for i in range(kh):
                for j in range(kw):
                    flat[:, i * wp + j:i * wp + j + ho * wp] += dcols[:, i, j]
            dx = flat[:, :hp * wp].reshape(cin, hp, wp)[:, pad:pad + h, pad:pad + w]
        else:
            dcols = (w2.T @ g2).reshape(cin, kh, kw, ho, wo)
            dxp = np.zeros((cin, hp, wp), dtype=g.dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcols[:, i, j]
            dx = dxp[:, pad:pad + h, pad:pad + w]
        _accum(grads, x, dx)
        if bias is not None:
            _accum(grads, bias, g.sum(axis=(1, 2)))

    return _make(out_data, parents, back)


def upsample2x(x) -> Tensor:
    """Nearest-neighbour x2 upsampling of ``[C,H,W]``."""
    x = _coerce(x)
    c, h, w = x.data.shape
    out_data = np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2)

    def back(g, grads):
        _accum(grads, x, g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)))

    return _make(out_data, (x,), back)


def _fold_taps(k: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """The three taps of ``k`` along ``axis`` collapsed to two for output
    phase 0 and phase 1 of a x2 upsample: ``[W0, W1+W2]`` and ``[W0+W1, W2]``."""
    w0, w1, w2 = np.moveaxis(k, axis, 0)
    return np.stack([w0, w1 + w2], axis), np.stack([w0 + w1, w2], axis)


def upsample_conv2d(x, skip, k, bias=None) -> Tensor:
    """``conv2d(concat([upsample2x(x), skip]), k, pad=1, bias=bias)`` for a
    ``[C, H, W]`` map ``x``, a ``[Cs, 2H, 2W]`` map ``skip`` (or None, for
    no concat) and a ``[Cout, C+Cs, 3, 3]`` kernel.

    A call that records a graph, or whose ``x`` is at most 8 wide, runs
    exactly those three ops, so its output and gradients are theirs.

    Otherwise the upsample is folded into the conv.  Output row ``2i + a``
    reads the upsampled rows ``2i+a-1 .. 2i+a+1``, which are low-resolution
    rows ``i-1, i, i`` for ``a = 0`` and ``i, i, i+1`` for ``a = 1``.  So
    each output phase ``(a, b)`` is a 2x2 conv of ``x`` with collapsed
    taps: kernel rows ``[W0, W1+W2]`` for ``a = 0`` and ``[W0+W1, W2]`` for
    ``a = 1``, and the same rule on columns with ``b``.  ``x`` is padded by
    one into a zeroed flat ``[C, (H+2)*Wp + 2]`` buffer (``Wp = W + 2``),
    and tap ``(r, s)`` of phase ``(a, b)`` is one GEMM over the columns
    from ``(a+r)*Wp + b+s``, accumulated as in ``conv2d``'s per-tap
    forward.  That is 4/9 of the FLOPs of the upsampled channels' conv.
    The phases are interleaved into ``out[:, a::2, b::2]``, and the skip
    channels' full-resolution ``conv2d(skip, k[:, C:], pad=1)`` is added by
    linearity.  The folded output matches the three ops to rounding, not
    in the bits.
    """
    x, k = _coerce(x), _coerce(k)
    skip = None if skip is None else _coerce(skip)
    bias = None if bias is None else _coerce(bias)
    c, h, w = x.data.shape
    cout, cin_k, kh, kw = k.data.shape
    cs = 0 if skip is None else skip.data.shape[0]
    if (kh, kw) != (3, 3) or cin_k != c + cs:
        raise ValueError(f"upsample_conv2d needs a [Cout, {c + cs}, 3, 3] kernel, "
                         f"got {k.data.shape}")
    if skip is not None and skip.data.shape[1:] != (2 * h, 2 * w):
        raise ValueError(f"upsample_conv2d needs a [{cs}, {2 * h}, {2 * w}] skip, "
                         f"got {skip.data.shape}")
    parents = tuple(p for p in (x, skip, k, bias) if p is not None)
    if w <= _NARROW or _records(parents):
        up = upsample2x(x)
        return conv2d(up if skip is None else concat([up, skip], axis=0), k,
                      pad=1, bias=bias)

    wp, n = w + 2, h * (w + 2)
    flat = np.zeros((c, (h + 2) * wp + 2), dtype=x.data.dtype)
    flat[:, :(h + 2) * wp].reshape(c, h + 2, wp)[:, 1:h + 1, 1:w + 1] = x.data
    out = np.empty((cout, 2 * h, 2 * w), dtype=flat.dtype)
    acc = np.empty((cout, n), dtype=flat.dtype)
    part = np.empty_like(acc)
    for a, rows in enumerate(_fold_taps(k.data[:, :c], 2)):
        for b, kc in enumerate(_fold_taps(rows, 3)):
            taps = kc.transpose(2, 3, 0, 1).copy()  # [2, 2, Cout, C]
            np.matmul(taps[0, 0], flat[:, a * wp + b:a * wp + b + n], out=acc)
            for r, s in ((0, 1), (1, 0), (1, 1)):
                off = (a + r) * wp + b + s
                acc += np.matmul(taps[r, s], flat[:, off:off + n], out=part)
            out[:, a::2, b::2] = acc.reshape(cout, h, wp)[:, :, :w]
    if skip is not None:
        out += conv2d(skip, k.data[:, c:], pad=1).data
    if bias is not None:
        out += bias.data[:, None, None]
    return _make(out, parents, None)


# ---- gradient checking -----------------------------------------------------


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be scalar-valued.  ``x`` is promoted to float64; any
    parameters captured by ``f`` should already be float64 (build the model
    under ``precision("float64")``).  The error denominator is
    ``max(|analytic|, |numeric|, 1e-8)`` per coordinate.

    Both derivatives are of the recording forward: the differences are
    evaluated with graph recording on and the bumped input requiring a
    gradient, as the analytic pass is.  The no-graph forward of some
    kernels (``conv2d``) sums in another order, and central differences
    would amplify that rounding gap by ``1/h``.
    """
    base = np.asarray(x.data, dtype=np.float64).copy()
    with precision("float64"):
        probe = Tensor(base.copy(), requires_grad=True)
        out = f(probe)
        backward(out)
        analytic = probe.grad
        if analytic is None:
            analytic = np.zeros_like(base)

        numeric = np.zeros_like(base)
        flat = numeric.reshape(-1)
        for i in range(base.size):
            bump = base.copy().reshape(-1)
            bump[i] += h
            fp = float(f(Tensor(bump.reshape(base.shape), requires_grad=True)).data)
            bump[i] -= 2 * h
            fm = float(f(Tensor(bump.reshape(base.shape), requires_grad=True)).data)
            flat[i] = (fp - fm) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
