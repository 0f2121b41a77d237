"""Shared test utilities: finite-difference oracles, small fixtures, and the
references the fused tensor ops and stacked evaluation are checked against."""

from __future__ import annotations

import numpy as np

from promptseg.backbone import tokenize
from promptseg.tensor import Tensor, as_tensor, matmul, mul
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
    """Softmax as its own graph node: the reference the fused attention op is
    checked against."""
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


def linear_chain(x, w, b):
    """``linear`` as the two nodes it stands for."""
    return matmul(x, w) + b


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


def evaluate_per_sample(model, state, samples) -> float:
    """``training.evaluate`` as one single-sample forward per sample, in split
    order: the reference stacked evaluation is checked against."""
    if not samples:
        return float("nan")
    scores = []
    for s in samples:
        logits = model.forward(s.image, tokenize(s.phrase, model.cfg.max_text_len), state)
        prob = 1.0 / (1.0 + np.exp(-logits.data))
        scores.append(dice_score(prob > THRESHOLD, s.mask))
    return float(np.mean(scores))
