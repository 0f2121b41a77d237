"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is stored as 64-bit floats in row-major numpy buffers.  The graph is
built eagerly, by one rule that ``_node`` holds for every op: an op with an
operand that requires grad returns a node that keeps its operands and a
closure routing the incoming gradient to them; an op over constants returns a
constant, which keeps neither.  `backward` walks the graph once in reverse
topological order from a scalar root.  Tensors with ``requires_grad=False``
never receive a gradient buffer, and no closure computes one for them.

Python dispatch per node, not BLAS, is what a step costs, so the model's hot
path runs on fused ops, one node each: ``linear`` (``x @ w [+ b]``, the one
matrix product), ``layer_norm`` and ``conv2d``.  ``linear`` gives the bits of
the chain of elementary ops it stands for, and ``layer_norm`` those of numpy's
``mean`` and ``var``; the tests hold them to that.  A whole transformer block
is one node too, ``backbone.transformer_block``, built on the array math of
``linear`` and ``layer_norm``, and so is the dice + BCE training loss of a
stack of samples, ``training.combined_loss``.

``conv2d`` never holds a stack's im2col columns: each image's columns are one
C-contiguous copy of a strided view of the padded input, made when that
image's GEMM runs, and its node keeps only the padded input, from which the
backward rebuilds each image's columns for the kernel gradient.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class ConfigError(ValueError):
    """Raised for invalid structural configuration (head counts, factors, ...)."""


class GradientError(RuntimeError):
    """Raised when backward is called on an invalid root."""


LN_EPS = 1e-5   # layer_norm's default epsilon


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

    def __getitem__(self, key):
        return take(self, key)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(val, parents: tuple[Tensor, ...], backward) -> Tensor:
    """An op's output: a node keeping ``parents`` and ``backward`` if any parent
    requires grad, else a constant that keeps neither."""
    for p in parents:  # a plain loop: any() over a generator costs more per op
        if p.requires_grad:
            out = Tensor(val, True, parents)
            out._backward = backward
            return out
    return Tensor(val)


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
    a, b = as_tensor(a), as_tensor(b)

    def _bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _node(a.data + b.data, (a, b), _bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def _bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _node(a.data * b.data, (a, b), _bw)


def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    return _node(np.where(mask, a.data, 0.0), (a,), lambda g: a._accumulate(g * mask))


# -- shape manipulation ------------------------------------------------------


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    return _node(a.data.reshape(shape), (a,), lambda g: a._accumulate(g.reshape(a.shape)))


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    return _node(a.data.transpose(axes), (a,),
                 lambda g: a._accumulate(g.transpose(tuple(np.argsort(axes)))))


def take(a: Tensor, key) -> Tensor:
    """Slice / integer-array indexing with scatter-add backward."""
    a = as_tensor(a)

    def _bw(g):
        gi = np.zeros_like(a.data)
        np.add.at(gi, key, g)
        a._accumulate(gi)

    return _node(a.data[key], (a,), _bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join ``tensors`` along ``axis``, each repeated over the leading axes
    before ``axis`` that it lacks; its gradient is summed back over them."""
    tensors = tuple(as_tensor(t) for t in tensors)
    widest = max((t.shape for t in tensors), key=len)
    parts = [t.data if t.data.ndim == len(widest) else
             np.broadcast_to(t.data, widest[:len(widest) - t.data.ndim] + t.shape)
             for t in tensors]

    def _bw(g):
        splits = np.cumsum([p.shape[axis] for p in parts])[:-1]
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accumulate(_unbroadcast(piece, t.shape))

    return _node(np.concatenate(parts, axis=axis), tensors, _bw)


# -- linear algebra ----------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x[..., k] @ w[k, n]`` as one node, ``w`` shared by every leading index
    of ``x``, plus ``b`` if given, broadcast against the ``[..., n]`` product."""
    x, w = as_tensor(x), as_tensor(w)
    if w.data.ndim != 2 or x.shape[-1:] != w.shape[:1]:
        raise ShapeError(f"linear shape mismatch: {x.shape} x {w.shape}")
    val = x.data @ w.data
    if b is not None:
        b = as_tensor(b)
        val = val + b.data

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        _linear_weight_grads(g, x.data, w, b)

    return _node(val, (x, w) if b is None else (x, w, b), _bw)


def _linear_weight_grads(g: np.ndarray, x: np.ndarray, w: Tensor, b: Tensor | None) -> None:
    """Route ``linear``'s incoming ``g`` to ``w`` and ``b``, each only if it
    requires grad; ``x`` is the product's left operand."""
    if w.requires_grad:
        # one GEMM over the rows of every leading index
        w._accumulate(x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
    if b is not None and b.requires_grad:
        b._accumulate(_unbroadcast(g, b.shape))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = LN_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.shape[-1] == 0:
        raise ShapeError("layer_norm over an empty last axis")
    if eps <= 0:
        raise ConfigError("layer_norm eps must be positive")
    val, xhat, inv = _layer_norm_arrays(x.data, gamma.data, beta.data, eps)

    def _bw(g):
        dx = _layer_norm_grads(g, gamma, beta, xhat, inv, x.requires_grad)
        if x.requires_grad:
            x._accumulate(dx)

    return _node(val, (x, gamma, beta), _bw)


def _layer_norm_arrays(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float):
    """``layer_norm``'s value, x̂ and 1/σ, with numpy's ``mean`` and ``var``
    arithmetic without their Python-level wrappers."""
    d = x.shape[-1]
    centred = x - x.sum(axis=-1, keepdims=True) / d
    var = (centred * centred).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    return gamma * xhat + beta, xhat, inv


def _layer_norm_grads(g: np.ndarray, gamma: Tensor, beta: Tensor, xhat: np.ndarray,
                      inv: np.ndarray, dx: bool) -> np.ndarray | None:
    """Route ``layer_norm``'s incoming ``g`` to ``gamma`` and ``beta``, each
    only if it requires grad, and return the input's gradient if ``dx``."""
    bcast, d = tuple(range(g.ndim - 1)), g.shape[-1]
    if gamma.requires_grad:
        gamma._accumulate((g * xhat).sum(axis=bcast) if bcast else g * xhat)
    if beta.requires_grad:
        beta._accumulate(g.sum(axis=bcast) if bcast else g.copy())
    if dx:
        dxhat = g * gamma.data
        return inv * (dxhat - dxhat.sum(axis=-1, keepdims=True) / d
                      - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d))


# -- image ops ---------------------------------------------------------------


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None, padding: int = 0) -> Tensor:
    """Cross-correlate ``x[..., c_in, h, w]`` with ``kernel[c_out, c_in, kh, kw]``,
    zero padded; leading axes index independent images."""
    x, kernel = as_tensor(x), as_tensor(kernel)
    *lead, c_in, h, w = x.shape
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
    n, taps = prod(lead), c_in * kh * kw
    xp = np.zeros((n, c_in, h + 2 * padding, w + 2 * padding))
    xp[..., padding : padding + h, padding : padding + w] = x.data.reshape(n, c_in, h, w)
    # every image's columns [c_in, kh, kw, oh, ow] as one strided view of xp;
    # an image's C-contiguous copy (the GEMMs' bits rest on it) is made only
    # while that image's GEMM runs
    windows = np.lib.stride_tricks.sliding_window_view(
        xp, (kh, kw), axis=(-2, -1)).transpose(0, 1, 4, 5, 2, 3)

    def columns(k: int) -> np.ndarray:
        return np.ascontiguousarray(windows[k]).reshape(taps, oh * ow)

    kmat = kernel.data.reshape(c_out, taps)
    # one GEMM per image, the one numpy's stacked matmul would run for it
    val = np.empty((n, c_out, oh * ow))
    for k in range(n):
        val[k] = kmat @ columns(k)
    val = val.reshape(*lead, c_out, oh, ow)
    if bias is not None:
        bias = as_tensor(bias)
        val = val + bias.data.reshape(c_out, 1, 1)

    def _bw(g):
        if kernel.requires_grad:
            # the columns rebuilt image by image, the products summed in image order
            g2, gk = g.reshape(n, c_out, oh * ow), np.zeros((c_out, taps))
            for k in range(n):
                gk += g2[k] @ columns(k).T
            kernel._accumulate(gk.reshape(kernel.shape))
        # summed over leading axes only when there are some: a sum over one
        # image would turn -0.0 into 0.0
        if bias is not None and bias.requires_grad:
            gb = g.sum(axis=(-2, -1))
            bias._accumulate(gb.reshape(-1, c_out).sum(axis=0) if lead else gb)
        if not x.requires_grad:
            return
        # each tap's exact products k * g, added into zeros in tap order: for
        # one output channel, the bits of a K=1 GEMM and window adds
        dxp = np.zeros((*lead, c_in, h + 2 * padding, w + 2 * padding))
        for i, j, o in product(range(kh), range(kw), range(c_out)):
            dxp[..., i : i + oh, j : j + ow] += (kernel.data[o, :, i, j, None, None]
                                                 * g[..., o : o + 1, :, :])
        x._accumulate(dxp[..., padding : padding + h, padding : padding + w])

    return _node(val, (x, kernel) if bias is None else (x, kernel, bias), _bw)
