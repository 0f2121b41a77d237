"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is stored as 64-bit floats in row-major numpy buffers.  The graph is
built eagerly: every op records its parents and a closure that routes the
incoming gradient to them.  `backward` walks the graph once in reverse
topological order from a scalar root.  Tensors with ``requires_grad=False``
never receive a gradient buffer, and no closure computes one for them.

Python dispatch per node, not BLAS, is what a step costs, so the model's hot
path runs on fused ops, one node each: ``linear`` (``x @ w + b``),
``attention`` (head split, softmax(q kᵀ / √d_h), dropout mask, A·V and head
merge), ``layer_norm`` and ``conv2d``.  ``linear`` and ``attention`` give the
bits of the chains of elementary ops they stand for, and ``layer_norm`` those
of numpy's ``mean`` and ``var``; the tests hold them to that.  The dice + BCE
training loss is one node too, ``training.combined_loss``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class ConfigError(ValueError):
    """Raised for invalid structural configuration (head counts, factors, ...)."""


class GradientError(RuntimeError):
    """Raised when backward is called on an invalid root."""


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=()):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = _parents
        self._backward = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # a fresh buffer, never an alias of g; adding 0.0 stores -0.0 as +0.0
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def backward(self) -> None:
        if self.data.size != 1:
            raise GradientError(
                f"backward requires a scalar root, got shape {self.shape}"
            )
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited and p.requires_grad:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes if axes else None)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over the axes that broadcasting expanded."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic --------------------------------------------------


def add(a, b) -> Tensor:
    a = as_tensor(a)
    if not isinstance(b, Tensor):
        out = Tensor(a.data + b, a.requires_grad, (a,))
        out._backward = lambda g: a._accumulate(_unbroadcast(g, a.shape))
        return out
    out = Tensor(a.data + b.data, a.requires_grad or b.requires_grad, (a, b))

    def _bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    out._backward = _bw
    return out


def mul(a, b) -> Tensor:
    a = as_tensor(a)
    if not isinstance(b, Tensor):
        bval = np.asarray(b, dtype=np.float64)
        out = Tensor(a.data * bval, a.requires_grad, (a,))
        out._backward = lambda g: a._accumulate(_unbroadcast(g * bval, a.shape))
        return out
    out = Tensor(a.data * b.data, a.requires_grad or b.requires_grad, (a, b))

    def _bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    out._backward = _bw
    return out


def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, 0.0), a.requires_grad, (a,))
    out._backward = lambda g: a._accumulate(g * mask)
    return out


# -- shape manipulation ------------------------------------------------------


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape), a.requires_grad, (a,))
    out._backward = lambda g: a._accumulate(g.reshape(a.shape))
    return out


def transpose(a: Tensor, axes=None) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.transpose(axes), a.requires_grad, (a,))
    if axes is None:
        inv = None
    else:
        inv = tuple(np.argsort(axes))
    out._backward = lambda g: a._accumulate(g.transpose(inv))
    return out


def broadcast_to(a: Tensor, shape: Sequence[int]) -> Tensor:
    """Read-only view of ``a`` repeated over new leading (or size-1) axes."""
    a = as_tensor(a)
    out = Tensor(np.broadcast_to(a.data, shape), a.requires_grad, (a,))
    out._backward = lambda g: a._accumulate(_unbroadcast(g, a.shape))
    return out


def take(a: Tensor, key) -> Tensor:
    """Slice / integer-array indexing with scatter-add backward."""
    a = as_tensor(a)
    out = Tensor(a.data[key], a.requires_grad, (a,))

    def _bw(g):
        gi = np.zeros_like(a.data)
        np.add.at(gi, key, g)
        a._accumulate(gi)

    out._backward = _bw
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(
        np.concatenate([t.data for t in tensors], axis=axis),
        any(t.requires_grad for t in tensors),
        tuple(tensors),
    )
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def _bw(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accumulate(piece)

    out._backward = _bw
    return out


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a[..., m, k] @ b[..., k, n]`` with equal leading axes, or a 2-D ``b``
    shared by every leading index of ``a``."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul expects >=2-d operands, got {a.shape} x {b.shape}")
    shared = b.data.ndim == 2
    if a.shape[-1] != b.shape[-2] or not (shared or a.shape[:-2] == b.shape[:-2]):
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data, a.requires_grad or b.requires_grad, (a, b))

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.swapaxes(-1, -2))
        if b.requires_grad and shared:
            # one GEMM over the rows of every leading index
            b._accumulate(a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        elif b.requires_grad:
            b._accumulate(a.data.swapaxes(-1, -2) @ g)

    out._backward = _bw
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x[..., k] @ w[k, n] + b`` as one node, ``w`` shared by every leading
    index of ``x``; ``b`` broadcasts against the ``[..., n]`` product."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if w.data.ndim != 2 or x.shape[-1:] != w.shape[:1]:
        raise ShapeError(f"linear shape mismatch: {x.shape} x {w.shape}")
    out = Tensor(x.data @ w.data + b.data,
                 x.requires_grad or w.requires_grad or b.requires_grad, (x, w, b))

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            # one GEMM over the rows of every leading index
            w._accumulate(x.data.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    out._backward = _bw
    return out


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, mask) -> Tensor:
    """Bidirectional multi-head attention of ``[..., s, d]`` projections as one
    node: split into heads, softmax(q kᵀ / √d_h) per head, times ``mask``
    (``[..., heads, s, s]`` dropout scales, or ``None``), then A·V with the
    heads merged back to ``[..., s, d]``."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    *lead, s, d = q.shape
    if d % heads != 0:
        raise ConfigError(f"{heads} heads do not divide width {d}")
    n, dh = len(lead), d // heads
    swap = (*range(n), n + 1, n, n + 2)  # [..., s, heads, dh] <-> [..., heads, s, dh]
    qh, kh, vh = (t.data.reshape(*lead, s, heads, dh).transpose(swap) for t in (q, k, v))
    scale = 1.0 / np.sqrt(dh)
    scores = (qh @ kh.swapaxes(-1, -2)) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att = e / e.sum(axis=-1, keepdims=True)
    weights = att if mask is None else att * mask

    def merge(t):
        return t.transpose(swap).reshape(*lead, s, d)

    out = Tensor(merge(weights @ vh), q.requires_grad or k.requires_grad or v.requires_grad,
                 (q, k, v))

    def _bw(g):
        gh = g.reshape(*lead, s, heads, dh).transpose(swap)
        if v.requires_grad:
            v._accumulate(merge(weights.swapaxes(-1, -2) @ gh))
        if not (q.requires_grad or k.requires_grad):
            return
        datt = gh @ vh.swapaxes(-1, -2)
        if mask is not None:
            datt = datt * mask
        dscores = att * (datt - (datt * att).sum(axis=-1, keepdims=True)) * scale
        if q.requires_grad:
            q._accumulate(merge(dscores @ kh))
        if k.requires_grad:
            k._accumulate(merge((qh.swapaxes(-1, -2) @ dscores).swapaxes(-1, -2)))

    out._backward = _bw
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.shape[-1]
    if d == 0:
        raise ShapeError("layer_norm over an empty last axis")
    if eps <= 0:
        raise ConfigError("layer_norm eps must be positive")
    # numpy's mean and var arithmetic, without their Python-level wrappers
    centred = x.data - x.data.sum(axis=-1, keepdims=True) / d
    var = (centred * centred).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    out = Tensor(
        gamma.data * xhat + beta.data,
        x.requires_grad or gamma.requires_grad or beta.requires_grad,
        (x, gamma, beta),
    )

    def _bw(g):
        bcast = tuple(range(g.ndim - 1))
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=bcast) if bcast else g * xhat)
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=bcast) if bcast else g.copy())
        if not x.requires_grad:
            return
        dxhat = g * gamma.data
        dx = inv * (
            dxhat
            - dxhat.sum(axis=-1, keepdims=True) / d
            - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d)
        )
        x._accumulate(dx)

    out._backward = _bw
    return out


# -- image ops ---------------------------------------------------------------


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None, padding: int = 0) -> Tensor:
    """Cross-correlate ``x[..., c_in, h, w]`` with ``kernel[c_out, c_in, kh, kw]``,
    zero padded; leading axes index independent images."""
    x, kernel = as_tensor(x), as_tensor(kernel)
    *lead, c_in, h, w = x.shape
    lead, n = tuple(lead), len(lead)
    c_out, kc, kh, kw = kernel.shape
    if kc != c_in:
        raise ShapeError(f"conv2d channel mismatch: input {c_in}, kernel {kc}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigError(f"conv2d kernel sides must be odd, got {kh}x{kw}")
    oh, ow = h + 2 * padding - kh + 1, w + 2 * padding - kw + 1
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"conv2d kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}"
        )
    xp = np.pad(x.data, ((0, 0),) * (n + 1) + ((padding, padding),) * 2)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(-2, -1))
    # cols: [..., c_in*kh*kw, oh*ow]
    cols = windows.transpose(*range(n), n, n + 3, n + 4, n + 1, n + 2).reshape(
        *lead, c_in * kh * kw, oh * ow)
    kmat = kernel.data.reshape(c_out, c_in * kh * kw)
    val = (kmat @ cols).reshape(*lead, c_out, oh, ow)
    parents = [x, kernel]
    if bias is not None:
        bias = as_tensor(bias)
        val = val + bias.data.reshape(c_out, 1, 1)
        parents.append(bias)
    out = Tensor(val, any(p.requires_grad for p in parents), tuple(parents))

    def _bw(g):
        g2 = g.reshape(*lead, c_out, oh * ow)
        # summed over leading axes only when there are some: a sum over one
        # image would turn -0.0 into 0.0
        if kernel.requires_grad:
            gk = g2 @ cols.swapaxes(-1, -2)  # [..., c_out, c_in*kh*kw]
            if lead:
                gk = gk.reshape(-1, *gk.shape[-2:]).sum(axis=0)
            kernel._accumulate(gk.reshape(kernel.shape))
        if bias is not None and bias.requires_grad:
            gb = g.sum(axis=(-2, -1))
            bias._accumulate(gb.reshape(-1, c_out).sum(axis=0) if lead else gb)
        if not x.requires_grad:
            return
        dcols = kmat.T @ g2  # [..., c_in*kh*kw, oh*ow]
        dxp = np.zeros_like(xp)
        dwin = dcols.reshape(*lead, c_in, kh, kw, oh, ow)
        for i in range(kh):
            for j in range(kw):
                dxp[..., i : i + oh, j : j + ow] += dwin[..., i, j, :, :]
        if padding:
            dxp = dxp[..., padding:-padding, padding:-padding]
        x._accumulate(dxp)

    out._backward = _bw
    return out
