"""Losses, the decoupled-weight-decay optimizer, and the frozen-backbone
training loop with its freeze ledger."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from math import prod
from pathlib import Path

import numpy as np

from . import checkpoint
from .backbone import Backbone, tokenize
from .prompts import PromptState, trainable_parameters
from .tensor import ShapeError, Tensor, _node, zero_grads


# probability above which a pixel counts as foreground when scoring dice
THRESHOLD = 0.5
# AdamW moment decay rates and denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# samples per evaluation forward: one forward's activations set evaluation's peak memory
EVAL_STACK = 16


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
    grad_accum: int = 2          # effective batch = micro_batch * grad_accum
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
    final_test_dice: float = float("nan")


def _rows(logits: Tensor, mask: np.ndarray):
    """The leading axes of ``logits [..., S, S]`` (none under three axes: one
    sample), and its values and mask as one row of pixels per sample."""
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != logits.shape:
        raise ShapeError(f"mask shape {mask.shape} does not match logits {logits.shape}")
    lead = logits.shape[:-2] if len(logits.shape) >= 3 else ()
    return lead, logits.data.reshape(prod(lead), -1), mask.reshape(prod(lead), -1)


def _probability(z: np.ndarray) -> np.ndarray:
    """The sigmoid of ``z``, from exp(-|z|) so that no logit overflows it."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _dice_parts(z: np.ndarray, mask: np.ndarray, smooth: float):
    """The probabilities of rows ``z``, and each row's dice numerator and denominator."""
    p = _probability(z)
    num = (p * mask).sum(axis=-1, keepdims=True) * 2.0 + smooth
    den = (p * p).sum(axis=-1, keepdims=True) + (mask * mask).sum(axis=-1, keepdims=True) + smooth
    return p, num, den


def dice_loss(logits: Tensor, mask: np.ndarray, smooth: float = 1.0) -> np.ndarray:
    """Smoothed soft dice on sigmoid probabilities, one value per sample:
    1 - (2*sum(p*g)+s)/(sum(p^2)+sum(g^2)+s)."""
    lead, z, mask = _rows(logits, mask)
    _, num, den = _dice_parts(z, mask, smooth)
    return (1.0 - num * np.reciprocal(den)).reshape(lead)


def bce_loss(logits: Tensor, mask: np.ndarray) -> np.ndarray:
    """Pixel-mean binary cross entropy in the numerically stable logit form,
    one value per sample."""
    lead, z, mask = _rows(logits, mask)
    return (np.maximum(z, 0.0) - z * mask + np.log1p(np.exp(-np.abs(z)))).mean(-1).reshape(lead)


def combined_loss(logits: Tensor, mask: np.ndarray, cfg: LossConfig) -> Tensor:
    """``lambda_dice * dice_loss + lambda_ce * bce_loss`` of each sample of
    ``logits [..., S, S]``, summed in sample order, as one graph node.

    The backward redoes, in the same order, the arithmetic of the chain of
    sigmoid, product, sum and power nodes each sample's loss stands for, so
    value and gradient have the bits of those chains summed by ``add`` nodes
    (``np.cumsum`` adds in order; ``np.sum`` would add pairwise):
    ``np.reciprocal`` and ``np.power`` are the array paths their
    ``den ** -1.0`` and ``den ** -2.0`` took.
    """
    _, z, target = _rows(logits, mask)
    val = np.cumsum(dice_loss(logits, mask, cfg.smooth) * cfg.lambda_dice
                    + bce_loss(logits, mask) * cfg.lambda_ce)[-1]

    def _bw(g):
        p, num, den = _dice_parts(z, target, cfg.smooth)
        g_ratio = g * cfg.lambda_dice * -1.0
        g_den = g_ratio * num * -1.0 * np.power(den, -2.0)
        g_p = g_ratio * np.reciprocal(den) * 2.0 * target
        g_p += g_den * p
        g_p += g_den * p
        g_z = g_p * p * (1.0 - p) + g * cfg.lambda_ce * (p - target) / p.shape[-1]
        logits._accumulate(g_z.reshape(logits.shape))

    return _node(val, (logits,), _bw)


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
        # first and second moments, one buffer per parameter, in its order
        self.m = [np.zeros_like(t.data) for _, t in self.named_params]
        self.v = [np.zeros_like(t.data) for _, t in self.named_params]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for (_, p), m, v in zip(self.named_params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            mhat = m / bc1
            vhat = v / bc2
            update = self.lr * (mhat / (np.sqrt(vhat) + EPS) + self.wd * p.data)
            # a 0-d parameter's arithmetic gives a numpy scalar: keep an array
            p.data = np.asarray(p.data - update)

    def zero_grad(self) -> None:
        zero_grads(t for _, t in self.named_params)


def evaluate(model: Backbone, state: PromptState | None, samples,
             memo: dict | None = None) -> float:
    """Mean dice over samples at the ``THRESHOLD`` probability.

    The samples, sorted by phrase, are forwarded in stacks of at most
    ``EVAL_STACK``, so each phrase fills one run of stacks.  The stacks
    share one ``memo``, with ``Backbone.forward``'s contract: the prompts
    are built once and each phrase is encoded once (by ``cocoop`` once per
    stack it is in).  A caller may pass one dict to successive calls, on any
    splits, as long as the prompts do not change between them; without one,
    each call starts an empty memo.  The stacks forward
    constant copies of the prompt parameters, so only a trained upsampler
    builds a graph: 4 nodes per stack, whose ``conv2d`` keeps the stack's
    padded logits, not its im2col columns.  Memory is bounded by one
    stack's activations: only the logits outlive a forward.
    """
    if not samples:
        return float("nan")
    if state is not None:
        state = replace(state, params={n: Tensor(t.data) for n, t in state.params.items()})
    order = sorted(range(len(samples)), key=lambda i: samples[i].phrase)
    scores = np.empty(len(samples))
    memo = {} if memo is None else memo
    for start in range(0, len(order), EVAL_STACK):
        stack = order[start:start + EVAL_STACK]
        # keep only the logits, so the stack's graph is freed before the next forward
        logits = model.forward(np.stack([samples[i].image for i in stack]),
                               [tokenize(samples[i].phrase, model.cfg.max_text_len)
                                for i in stack], state, memo=memo).data
        for i, p in zip(stack, _probability(logits)):
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
    order: list[int] = []

    def next_sample():
        nonlocal order
        if not order:
            order = list(rng.permutation(len(train_samples)))
        return train_samples[order.pop()]

    metrics: list[dict] = []
    loss_cfg = run_cfg.loss
    # one memo per set of prompts: a fresh one after each optimizer step, and
    # the last one serves the final evaluations
    memo: dict = {}
    for step in range(1, run_cfg.steps + 1):
        opt.zero_grad()
        step_loss = 0.0
        for _ in range(run_cfg.grad_accum):
            batch = [next_sample() for _ in range(run_cfg.micro_batch)]
            if run_cfg.augment:
                batch = [augment_sample(s, rng) for s in batch]
            # one graph for the micro-batch: logits [N, S, S]
            logits = model.forward(np.stack([s.image for s in batch]),
                                   [tokenize(s.phrase, model.cfg.max_text_len) for s in batch],
                                   state, rng=rng)
            micro = (combined_loss(logits, np.stack([s.mask for s in batch]), loss_cfg)
                     * (1.0 / (len(batch) * run_cfg.grad_accum)))
            micro.backward()
            step_loss += micro.item()
            # free this micro-batch's graph before the next forward
            del logits, micro
        if not np.isfinite(step_loss):
            raise NonFiniteLossError(f"non-finite loss {step_loss} at step {step}")
        opt.step()
        memo = {}
        evaluated = step % run_cfg.eval_every == 0 or step == run_cfg.steps
        metrics.append({"step": step, "loss": step_loss,
                        "dice": evaluate(model, state, val_samples, memo) if evaluated else None,
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
        # the last step always evaluates val, and nothing has changed since
        final_val_dice=(metrics[-1]["dice"] if metrics
                        else evaluate(model, state, val_samples, memo)),
        final_train_dice=evaluate(model, state, train_samples, memo),
        final_test_dice=evaluate(model, state, dataset.get("test", []), memo),
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
