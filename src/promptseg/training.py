"""Losses, the decoupled-weight-decay optimizer, and the frozen-backbone
training loop with its freeze ledger."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checkpoint
from .backbone import Backbone, tokenize
from .prompts import PromptState, trainable_parameters
from .tensor import ShapeError, Tensor, zero_grads


# probability above which a pixel counts as foreground when scoring dice
THRESHOLD = 0.5
# AdamW moment decay rates and denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# samples per evaluation forward; its graph (the prompts require grad) sets peak memory
EVAL_STACK = 4


class FreezeViolationError(RuntimeError):
    """A frozen backbone parameter changed during training."""


class NonFiniteLossError(RuntimeError):
    """A training step's loss was NaN or infinite."""


@dataclass
class LossConfig:
    lambda_dice: float = 1.0
    lambda_ce: float = 0.2
    smooth: float = 1.0


@dataclass
class TrainRunConfig:
    steps: int = 200
    micro_batch: int = 4
    grad_accum: int = 8          # effective batch = micro_batch * grad_accum
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    seed: int = 0
    eval_every: int = 50
    augment: bool = False
    loss: LossConfig = field(default_factory=LossConfig)


@dataclass
class TrainedArtifacts:
    metrics: list[dict]
    checkpoint_arrays: dict[str, np.ndarray]
    checkpoint_path: str | None = None
    metrics_path: str | None = None
    final_train_dice: float = float("nan")
    final_val_dice: float = float("nan")


def _check_mask(logits: Tensor, mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != logits.shape:
        raise ShapeError(f"mask shape {mask.shape} does not match logits {logits.shape}")
    return mask


def _probability(z: np.ndarray) -> np.ndarray:
    """The sigmoid of ``z``, from exp(-|z|) so that no logit overflows it."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _dice_parts(z: np.ndarray, mask: np.ndarray, smooth: float):
    """The probabilities, and the numerator and denominator of the dice ratio."""
    p = _probability(z)
    num = (p * mask).sum() * 2.0 + smooth
    den = (p * p).sum() + float((mask * mask).sum()) + smooth
    return p, num, den


def dice_loss(logits: Tensor, mask: np.ndarray, smooth: float = 1.0) -> np.float64:
    """Smoothed soft dice on sigmoid probabilities: 1 - (2*sum(p*g)+s)/(sum(p^2)+sum(g^2)+s)."""
    _, num, den = _dice_parts(logits.data, _check_mask(logits, mask), smooth)
    return 1.0 - num * np.reciprocal(den)


def bce_loss(logits: Tensor, mask: np.ndarray) -> np.float64:
    """Pixel-mean binary cross entropy in the numerically stable logit form."""
    mask = _check_mask(logits, mask)
    z = logits.data
    return (np.maximum(z, 0.0) - z * mask + np.log1p(np.exp(-np.abs(z)))).mean()


def combined_loss(logits: Tensor, mask: np.ndarray, cfg: LossConfig) -> Tensor:
    """``lambda_dice * dice_loss + lambda_ce * bce_loss`` as one graph node.

    The backward redoes, in the same order, the arithmetic of the chain of
    sigmoid, product, sum and power nodes the loss stands for, so the value
    and the gradient have that chain's bits: ``np.reciprocal`` and
    ``np.power`` are the array paths its ``den ** -1.0`` and ``den ** -2.0``
    took.
    """
    mask = _check_mask(logits, mask)
    out = Tensor(dice_loss(logits, mask, cfg.smooth) * cfg.lambda_dice
                 + bce_loss(logits, mask) * cfg.lambda_ce, logits.requires_grad, (logits,))

    def _bw(g):
        p, num, den = _dice_parts(logits.data, mask, cfg.smooth)
        g_ratio = g * cfg.lambda_dice * -1.0
        g_den = g_ratio * num * -1.0 * np.power(den, -2.0)
        g_p = g_ratio * np.reciprocal(den) * 2.0 * mask
        g_p += g_den * p
        g_p += g_den * p
        logits._accumulate(g_p * p * (1.0 - p) + g * cfg.lambda_ce * (p - mask) / p.size)

    out._backward = _bw
    return out


def dice_score(pred_mask: np.ndarray, gt_mask: np.ndarray) -> float:
    """2|P∩G| / (|P|+|G|); 1.0 when both masks are empty."""
    pred = np.asarray(pred_mask, dtype=bool)
    gt = np.asarray(gt_mask, dtype=bool)
    if pred.shape != gt.shape:
        raise ShapeError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    denom = pred.sum() + gt.sum()
    if denom == 0:
        return 1.0
    return float(2.0 * np.logical_and(pred, gt).sum() / denom)


class AdamW:
    """Adam with bias correction and decoupled weight decay applied to the
    parameters directly, not folded into the gradient."""

    def __init__(self, named_params, learning_rate: float, weight_decay: float = 0.0):
        self.named_params = list(named_params)
        self.lr = learning_rate
        self.wd = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in self.named_params}
        self.v = {name: np.zeros_like(t.data) for name, t in self.named_params}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for name, p in self.named_params:
            if name not in self.m:
                raise KeyError(f"no moment buffers for parameter {name}")
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            mhat = m / bc1
            vhat = v / bc2
            p.data = p.data - self.lr * (mhat / (np.sqrt(vhat) + EPS) + self.wd * p.data)

    def zero_grad(self) -> None:
        zero_grads(t for _, t in self.named_params)


def evaluate(model: Backbone, state: PromptState | None, samples) -> float:
    """Mean dice over samples at the ``THRESHOLD`` probability.

    Each phrase's samples are forwarded in stacks of at most ``EVAL_STACK``,
    so a stack runs one text-encoder pass and holds a graph of bounded size.
    """
    if not samples:
        return float("nan")
    by_phrase: dict[str, list[int]] = {}
    for i, s in enumerate(samples):
        by_phrase.setdefault(s.phrase, []).append(i)
    scores = np.empty(len(samples))
    for phrase, idx in by_phrase.items():
        tokens = tokenize(phrase, model.cfg.max_text_len)
        for start in range(0, len(idx), EVAL_STACK):
            stack = idx[start:start + EVAL_STACK]
            # keep only the logits, so the stack's graph is freed before the next forward
            logits = model.forward(np.stack([samples[i].image for i in stack]),
                                   [tokens] * len(stack), state).data
            prob = _probability(logits)
            for i, p in zip(stack, prob):
                scores[i] = dice_score(p > THRESHOLD, samples[i].mask)
    return float(np.mean(scores))


def train(model: Backbone, state: PromptState, dataset: dict,
          run_cfg: TrainRunConfig, out_dir=None, on_step=None) -> TrainedArtifacts:
    """Run the deterministic prompt-tuning loop.

    Only tensors reported by ``trainable_parameters`` are updated; the frozen
    backbone is checksummed before and after, and any drift is fatal.
    """
    from .dataio import augment as augment_sample

    params = trainable_parameters(state, model)
    opt = AdamW(params, run_cfg.learning_rate, run_cfg.weight_decay)
    pre_checksum = model.frozen_checksum()
    rng = np.random.default_rng(run_cfg.seed)

    train_samples = list(dataset["train"])
    val_samples = list(dataset.get("val", []))
    token_cache: dict[str, np.ndarray] = {}

    def tok(phrase: str) -> np.ndarray:
        if phrase not in token_cache:
            token_cache[phrase] = tokenize(phrase, model.cfg.max_text_len)
        return token_cache[phrase]

    order: list[int] = []

    def next_sample():
        nonlocal order
        if not order:
            order = list(rng.permutation(len(train_samples)))
        return train_samples[order.pop()]

    metrics: list[dict] = []
    loss_cfg = run_cfg.loss
    for step in range(1, run_cfg.steps + 1):
        opt.zero_grad()
        step_loss = 0.0
        for _ in range(run_cfg.grad_accum):
            batch = [next_sample() for _ in range(run_cfg.micro_batch)]
            if run_cfg.augment:
                batch = [augment_sample(s, rng) for s in batch]
            # one graph for the micro-batch: logits [N, S, S]
            logits = model.forward(np.stack([s.image for s in batch]),
                                   [tok(s.phrase) for s in batch], state, rng=rng)
            micro = combined_loss(logits[0], batch[0].mask, loss_cfg)
            for i in range(1, len(batch)):
                micro = micro + combined_loss(logits[i], batch[i].mask, loss_cfg)
            micro = micro * (1.0 / (len(batch) * run_cfg.grad_accum))
            micro.backward()
            step_loss += micro.item()
            # free this micro-batch's graph before the next forward
            del logits, micro
        if not np.isfinite(step_loss):
            raise NonFiniteLossError(f"non-finite loss {step_loss} at step {step}")
        opt.step()
        evaluated = step % run_cfg.eval_every == 0 or step == run_cfg.steps
        metrics.append({"step": step, "loss": step_loss,
                        "dice": evaluate(model, state, val_samples) if evaluated else None,
                        "lr": run_cfg.learning_rate})
        if on_step is not None:
            on_step(step, model, state)

    post_checksum = model.frozen_checksum()
    if post_checksum != pre_checksum:
        raise FreezeViolationError(
            "frozen backbone parameters changed during training "
            f"({pre_checksum[:12]} -> {post_checksum[:12]})"
        )

    arrays = {name: t.data.copy() for name, t in params}
    artifacts = TrainedArtifacts(
        metrics=metrics,
        checkpoint_arrays=arrays,
        final_train_dice=evaluate(model, state, train_samples),
        # the last step always evaluates val, and nothing has changed since
        final_val_dice=(metrics[-1]["dice"] if metrics
                        else evaluate(model, state, val_samples)),
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        ckpt = out / "prompts.ckpt"
        checkpoint.save_arrays(ckpt, arrays)
        mpath = out / "metrics.jsonl"
        with open(mpath, "w") as f:
            for rec in metrics:
                f.write(json.dumps(rec) + "\n")
        artifacts.checkpoint_path = str(ckpt)
        artifacts.metrics_path = str(mpath)
    return artifacts
