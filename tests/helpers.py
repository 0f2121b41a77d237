"""Shared test utilities: finite-difference oracles, small fixtures, the
references the fused tensor ops, ``concat``'s repeats, ``conv2d``, the
transformer block, the loss node and stacked evaluation are checked against,
and the reader of the checkpoint files ``checkpoint.save_arrays`` writes."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from promptseg.backbone import tokenize
from promptseg.checkpoint import _MAGIC
from promptseg.tensor import (
    ShapeError, Tensor, _unbroadcast, as_tensor, concat, layer_norm, linear, mul, relu,
)
from promptseg.training import THRESHOLD, dice_score


def finite_difference(loss_fn, tensors, h: float = 1e-5):
    """Central-difference gradient of ``loss_fn()`` w.r.t. each tensor's data.

    Independent of the tape: only re-evaluates the forward function.
    """
    grads = []
    for t in tensors:
        flat = t.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(len(flat)):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn()
            flat[i] = orig - h
            lm = loss_fn()
            flat[i] = orig
            g[i] = (lp - lm) / (2 * h)
        grads.append(g.reshape(t.data.shape))
    return grads


def max_rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


# -- composed references for the fused tensor ops -----------------------------


def softmax(a, axis: int = -1):
    """Softmax as its own graph node, in ``attention_chain``."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    val = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(val, a.requires_grad, (a,))

    def _bw(g):
        dot = (g * val).sum(axis=axis, keepdims=True)
        a._accumulate(val * (g - dot))

    out._backward = _bw
    return out


def reduce_sum(a):
    """The sum of every element, as a scalar node."""
    a = as_tensor(a)
    out = Tensor(a.data.sum(), a.requires_grad, (a,))
    out._backward = lambda g: a._accumulate(np.broadcast_to(g, a.shape).copy())
    return out


def matmul(a, b):
    """``a[..., m, k] @ b[..., k, n]`` with equal leading axes, or a 2-D ``b``
    shared by every leading index of ``a``, as one node: the reference
    ``linear`` and ``attention`` are checked against."""
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


def linear_chain(x, w, b):
    """``linear`` as the two nodes it stands for."""
    return matmul(x, w) + b


def broadcast_to(a, shape):
    """A read-only view of ``a`` repeated over new leading axes, as one node."""
    a = as_tensor(a)
    out = Tensor(np.broadcast_to(a.data, shape), a.requires_grad, (a,))
    out._backward = lambda g: a._accumulate(_unbroadcast(g, a.shape))
    return out


def concat_chain(tensors, axis: int):
    """``concat`` over operands of unequal rank as the nodes it stands for: a
    ``broadcast_to`` of each operand to the leading axes before ``axis`` of
    them all, then a join of operands that need no repeat."""
    lead = np.broadcast_shapes(*(t.shape[:axis] for t in tensors))
    return concat([t if t.shape[:axis] == lead else
                   broadcast_to(t, (*lead, *t.shape[axis:])) for t in tensors], axis=axis)


def attention_chain(q, k, v, heads: int, mask):
    """``attention`` as the chain of reshape / transpose / matmul / mul /
    softmax nodes it stands for."""
    *lead, s, d = q.shape
    dh, n = d // heads, len(lead)
    swap = (*range(n), n + 1, n, n + 2)

    def split(t):
        return t.reshape(*lead, s, heads, dh).transpose(swap)

    qh, kh, vh = split(q), split(k), split(v)
    att = softmax(matmul(qh, kh.transpose(*range(n + 1), n + 2, n + 1)) * (1.0 / np.sqrt(dh)))
    if mask is not None:
        att = mul(att, mask)
    return matmul(att, vh).transpose(swap).reshape(*lead, s, d)


def attention(q, k, v, heads: int, mask):
    """Bidirectional multi-head attention of ``[..., s, d]`` projections as one
    node: split into heads, softmax(q kᵀ / √d_h) per head, times ``mask``
    (``[..., heads, s, s]`` dropout scales, or ``None``), then A·V with the
    heads merged back to ``[..., s, d]``.  The attention node of
    ``transformer_block_chain``; it gives the bits of ``attention_chain``."""
    *lead, s, d = q.shape
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


def transformer_block_chain(params, prefix, x, heads, layernorm_first=True,
                            attn_dropout=0.0, rng=None):
    """``backbone.transformer_block`` as the chain of ``layer_norm``,
    ``linear``, ``attention``, ``relu`` and add nodes it stands for, 12 nodes,
    drawing the same dropout mask from the same ``rng``."""
    p = lambda n: params[f"{prefix}.{n}"]

    def attn(t):
        *lead, s, _ = t.shape
        mask = None
        if attn_dropout > 0.0 and rng is not None:
            mask = (rng.random((*lead, heads, s, s)) >= attn_dropout) / (1.0 - attn_dropout)
        out = attention(linear(t, p("wq"), p("bq")), linear(t, p("wk"), p("bk")),
                        linear(t, p("wv"), p("bv")), heads, mask)
        return linear(out, p("wo"), p("bo"))

    def ff(t):
        return linear(relu(linear(t, p("ff.w1"), p("ff.b1"))), p("ff.w2"), p("ff.b2"))

    if layernorm_first:
        x = x + attn(layer_norm(x, p("ln1.g"), p("ln1.b")))
        x = x + ff(layer_norm(x, p("ln2.g"), p("ln2.b")))
    else:
        x = layer_norm(x + attn(x), p("ln1.g"), p("ln1.b"))
        x = layer_norm(x + ff(x), p("ln2.g"), p("ln2.b"))
    return x


def layer_norm_reference(x, gamma, beta, eps: float = 1e-5):
    """``layer_norm`` with numpy's ``mean`` and ``var`` in the forward and the
    backward."""
    mu = x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.data.var(axis=-1, keepdims=True) + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(gamma.data * xhat + beta.data, True, (x, gamma, beta))

    def _bw(g):
        bcast = tuple(range(g.ndim - 1))
        gamma._accumulate((g * xhat).sum(axis=bcast))
        beta._accumulate(g.sum(axis=bcast))
        dxhat = g * gamma.data
        x._accumulate(inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                             - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)))

    out._backward = _bw
    return out


def conv2d_reference(x, kernel, bias=None, padding: int = 0):
    """``tensor.conv2d`` as an im2col of the padded input and two batched
    GEMMs, with the input gradient scattered back window by window: the
    reference the op's bits are checked against for one channel."""
    x, kernel = as_tensor(x), as_tensor(kernel)
    *lead, c_in, h, w = x.shape
    lead, n = tuple(lead), len(lead)
    c_out, _, kh, kw = kernel.shape
    oh, ow = h + 2 * padding - kh + 1, w + 2 * padding - kw + 1
    xp = np.pad(x.data, ((0, 0),) * (n + 1) + ((padding, padding),) * 2)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(-2, -1))
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
        if kernel.requires_grad:
            gk = g2 @ cols.swapaxes(-1, -2)
            if lead:
                gk = gk.reshape(-1, *gk.shape[-2:]).sum(axis=0)
            kernel._accumulate(gk.reshape(kernel.shape))
        if bias is not None and bias.requires_grad:
            gb = g.sum(axis=(-2, -1))
            bias._accumulate(gb.reshape(-1, c_out).sum(axis=0) if lead else gb)
        if not x.requires_grad:
            return
        dwin = (kmat.T @ g2).reshape(*lead, c_in, kh, kw, oh, ow)
        dxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                dxp[..., i : i + oh, j : j + ow] += dwin[..., i, j, :, :]
        if padding:
            dxp = dxp[..., padding:-padding, padding:-padding]
        x._accumulate(dxp)

    out._backward = _bw
    return out


# -- the op chain the loss node stands for -----------------------------------


def sigmoid(a):
    a = as_tensor(a)
    val = np.where(
        a.data >= 0, 1.0 / (1.0 + np.exp(-a.data)),
        np.exp(np.minimum(a.data, 0.0)) / (1.0 + np.exp(np.minimum(a.data, 0.0))),
    )
    out = Tensor(val, a.requires_grad, (a,))
    out._backward = lambda g: a._accumulate(g * val * (1.0 - val))
    return out


def power(a, p: float):
    a = as_tensor(a)
    out = Tensor(a.data**p, a.requires_grad, (a,))
    out._backward = lambda g: a._accumulate(g * p * a.data ** (p - 1))
    return out


def bce_with_logits(logits, target):
    """Mean binary cross entropy from raw logits as one node."""
    z, n = logits.data, logits.data.size
    loss = np.maximum(z, 0.0) - z * target + np.log1p(np.exp(-np.abs(z)))
    out = Tensor(loss.mean(), logits.requires_grad, (logits,))

    def _bw(g):
        p = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
        logits._accumulate(g * (p - target) / n)

    out._backward = _bw
    return out


def combined_loss_chain(logits, mask, cfg):
    """``training.combined_loss`` as the 17 nodes it stands for.  At logits
    beyond ±709 ``sigmoid`` and the BCE backward overflow in ``exp``."""
    p = sigmoid(logits)
    num = reduce_sum(p * mask) * 2.0 + cfg.smooth
    den = reduce_sum(p * p) + float((mask * mask).sum()) + cfg.smooth
    dice = num * power(den, -1.0) * -1.0 + 1.0
    return dice * cfg.lambda_dice + bce_with_logits(logits, mask) * cfg.lambda_ce


def evaluate_per_sample(model, state, samples) -> float:
    """``training.evaluate`` as one single-sample forward per sample, in split
    order: the reference stacked evaluation is checked against."""
    if not samples:
        return float("nan")
    scores = []
    for s in samples:
        logits = model.forward(s.image, tokenize(s.phrase, model.cfg.max_text_len), state)
        z = logits.data
        e = np.exp(-np.abs(z))  # 1 / (1 + exp(-z)) overflows below z = -709
        prob = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        scores.append(dice_score(prob > THRESHOLD, s.mask))
    return float(np.mean(scores))


# -- the read side of the checkpoint format -----------------------------------


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read a checkpoint; a file without the magic, or cut short, raises
    ``ValueError`` naming it."""
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path} is not a promptseg checkpoint")
    # base >= 12, so a file cut inside the length field fails the check too
    base = 12 + int.from_bytes(raw[4:12], "little")
    if len(raw) < base:
        raise ValueError(f"{path}: checkpoint header is cut short")
    header = json.loads(raw[12:base])
    out: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape))
        start = base + entry["offset"]
        if start + 8 * count > len(raw):
            raise ValueError(f"{path}: checkpoint payload is shorter than its header says")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=start)
        out[entry["name"]] = arr.reshape(shape).copy()
    return out
