"""Correctness checks, computed apart from the program.

Each ``check_*`` function returns a list of failure messages; an empty list
means the check passed.  The reference computations here (hash, dice, loss,
checkpoint parser, search-space table) are written out again rather than
borrowed from promptseg, so a fault in the program cannot hide itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

UPSAMPLER = ("upsampler.kernel", "upsampler.bias", "upsampler.residual_factor")
GRAD_TOL = 1e-4
DICE_TOL = 1e-12
FIXED_MIN_TRAIN_DICE = 0.90

# shared-attention's search dimensions at depth_max 3:
# name -> ("log"|"linear", low, high) | ("int", low, high) | ("choice", options)
SHARED_ATTENTION_SPACE = {
    "learning_rate": ("log", 1e-5, 5e-3),
    "weight_decay": ("log", 1e-5, 1e-2),
    "prompt_depth": ("int", 1, 3),
    "attn_heads": ("choice", [2, 4, 8]),
    "attn_dropout": ("linear", 0.1, 0.55),
    "attn_ff_dim": ("choice", [64, 128]),
    "layernorm_first": ("choice", [True, False]),
}


# -- frozen backbone ---------------------------------------------------------


def frozen_hash(model, use_upsampler: bool) -> str:
    """SHA-256 over the name and bytes of every frozen backbone array."""
    trainable = set(UPSAMPLER) if use_upsampler else set()
    h = hashlib.sha256()
    for name in sorted(model.params):
        if name in trainable:
            continue
        arr = np.ascontiguousarray(model.params[name].data, dtype=np.float64)
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def check_frozen(before: str, model, use_upsampler: bool) -> list[str]:
    after = frozen_hash(model, use_upsampler)
    if after != before:
        return [f"frozen backbone changed: {before[:12]} -> {after[:12]}"]
    return []


# -- training record ---------------------------------------------------------


def check_losses_finite(metrics: list[dict]) -> list[str]:
    bad = [m["step"] for m in metrics if not math.isfinite(m["loss"])]
    if bad or not metrics:
        return [f"non-finite loss at steps {bad[:5]}" if bad else "no loss recorded"]
    return []


# -- dice --------------------------------------------------------------------


def dice(pred: np.ndarray, gt: np.ndarray) -> float:
    """2|P and G| / (|P| + |G|), and 1 when both are empty."""
    p = pred.astype(bool)
    g = gt.astype(bool)
    total = int(p.sum()) + int(g.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((p & g).sum()) / total


def mean_dice(logits: list[np.ndarray], masks: list[np.ndarray]) -> float:
    """Mean dice of the 0.5-probability masks of ``logits`` against ``masks``."""
    return float(np.mean([dice(1.0 / (1.0 + np.exp(-z)) > 0.5, m)
                          for z, m in zip(logits, masks)]))


def check_dice(own: float, reported: float, what: str) -> list[str]:
    if not abs(own - reported) <= DICE_TOL:
        return [f"{what}: own dice {own!r} != reported {reported!r}"]
    return []


# -- loss and gradient -------------------------------------------------------


def own_loss(logits: np.ndarray, mask: np.ndarray, lambda_dice: float,
             lambda_ce: float, smooth: float) -> float:
    """Soft dice on sigmoid probabilities plus pixel-mean BCE from logits."""
    z = np.asarray(logits, dtype=np.float64)
    g = np.asarray(mask, dtype=np.float64)
    p = 1.0 / (1.0 + np.exp(-z))
    soft_dice = 1.0 - (2.0 * (p * g).sum() + smooth) / ((p * p).sum() + (g * g).sum()
                                                        + smooth)
    bce = np.mean(np.maximum(z, 0.0) - z * g + np.log1p(np.exp(-np.abs(z))))
    return float(lambda_dice * soft_dice + lambda_ce * bce)


def directional_error(loss_at, params: list, grads: list[np.ndarray], rng,
                      steps=(1e-6, 1e-7)) -> float:
    """Relative error between the tape's directional derivative ``<g, d>``
    and central differences of ``loss_at()`` along a unit direction ``d`` over
    all of ``params``; parameter arrays are restored exactly.

    ``d`` is half the tape gradient's direction and half a random one, so the
    derivative along it is not vanishingly small, and a gradient that is wrong
    in size or in direction both show.  ReLU kinks make a difference with one
    step land off by chance, so the smallest error over ``steps`` counts."""
    rand = [rng.standard_normal(p.data.shape) for p in params]
    dirs = [r / _norm(rand) for r in rand]
    if _norm(grads) > 0:
        dirs = [d + g / _norm(grads) for d, g in zip(dirs, grads)]
    dirs = [d / _norm(dirs) for d in dirs]
    tape = sum(float((g * d).sum()) for g, d in zip(grads, dirs))
    saved = [p.data for p in params]
    errors = []
    try:
        for h in steps:
            values = []
            for sign in (1.0, -1.0):
                for p, base, d in zip(params, saved, dirs):
                    p.data = base + sign * h * d
                values.append(loss_at())
            fd = (values[0] - values[1]) / (2.0 * h)
            errors.append(abs(fd - tape) / max(abs(fd), abs(tape), 1e-12))
    finally:
        for p, base in zip(params, saved):
            p.data = base
    return min(errors)


def _norm(arrays) -> float:
    return math.sqrt(sum(float((a * a).sum()) for a in arrays))


def check_gradient(err: float, what: str) -> list[str]:
    if not err <= GRAD_TOL:
        return [f"{what}: directional derivative off by relative {err:.3e}"]
    return []


# -- checkpoint --------------------------------------------------------------


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Parse a ``prompts.ckpt``: magic ``PSCK``, little-endian u64 header
    length, JSON header (name, shape, offset), raw little-endian float64."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"PSCK":
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    (hlen,) = struct.unpack("<Q", raw[4:12])
    header = json.loads(raw[12:12 + hlen].decode())
    base = 12 + hlen
    out = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64))
        start = base + entry["offset"]
        out[entry["name"]] = np.frombuffer(raw[start:start + 8 * count],
                                           dtype="<f8").reshape(shape)
    return out


def check_checkpoint(path, trained: dict[str, np.ndarray]) -> list[str]:
    try:
        loaded = read_checkpoint(path)
    except (OSError, ValueError, KeyError) as exc:
        return [f"checkpoint {path} unreadable: {exc}"]
    if set(loaded) != set(trained):
        return [f"checkpoint names differ: {sorted(set(loaded) ^ set(trained))}"]
    bad = [n for n in trained
           if loaded[n].shape != trained[n].shape
           or loaded[n].tobytes() != np.ascontiguousarray(trained[n], "<f8").tobytes()]
    return [f"checkpoint arrays differ from trained: {bad}"] if bad else []


# -- sweep -------------------------------------------------------------------


def check_trial_config(config: dict) -> list[str]:
    out = []
    if set(config) != set(SHARED_ATTENTION_SPACE):
        return [f"trial config keys {sorted(config)} != {sorted(SHARED_ATTENTION_SPACE)}"]
    for name, spec in SHARED_ATTENTION_SPACE.items():
        v = config[name]
        kind = spec[0]
        if kind == "choice":
            ok = any(v == c and type(v) is type(c) for c in spec[1])
        elif kind == "int":
            ok = type(v) is int and spec[1] <= v <= spec[2]
        else:
            ok = isinstance(v, float) and spec[1] * (1 - 1e-12) <= v <= spec[2] * (1 + 1e-12)
        if not ok:
            out.append(f"trial value {name}={v!r} outside {spec}")
    return out


def check_study(study, n_trials: int, path) -> list[str]:
    """Trial status, config, dice ranges, best trial and the study file."""
    out = []
    recs = study.records
    if len(recs) != n_trials:
        out.append(f"study holds {len(recs)} trials, expected {n_trials}")
    for r in recs:
        if r.status != "complete":   # a failed operation, counted as such
            continue
        out.extend(check_trial_config(r.config))
        for what, v in (("val", r.val_dice), ("test", r.test_dice)):
            if not (isinstance(v, float) and 0.0 <= v <= 1.0):
                out.append(f"trial {r.trial_id} {what} dice {v!r} outside [0, 1]")
    complete = [r for r in recs if r.status == "complete"]
    if complete:
        # ties are common on a small val split: any arg-max will do
        top = max(r.val_dice for r in complete)
        arg_max = [r.trial_id for r in complete if r.val_dice == top]
        if study.best is None or study.best.trial_id not in arg_max:
            out.append(f"best trial {getattr(study.best, 'trial_id', None)} not among "
                       f"the arg-max trials {arg_max}")
    lines = Path(path).read_text().splitlines()
    header = json.loads(lines[0])
    if [json.loads(ln) for ln in lines[1:]] != [json.loads(json.dumps(r.to_json()))
                                                for r in recs]:
        out.append("study file records differ from the in-memory study")
    if header["rng_state"] != json.loads(json.dumps(study.rng.bit_generator.state)):
        out.append("study file sampler state differs from the in-memory study")
    return out
