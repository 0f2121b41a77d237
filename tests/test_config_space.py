"""Small random configs through ``promptseg train``: a run either trains and
leaves sane output, or is refused before its first step."""

import json
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from promptseg import cli, runner, training
from promptseg.backbone import tokenize
from promptseg.prompts import KINDS, trainable_parameters
from promptseg.tensor import zero_grads

from helpers import evaluate_per_sample

CONFIGS = hst.fixed_dictionaries({
    "strategy": hst.sampled_from(KINDS),
    "prompt_length": hst.integers(1, 3),
    "prompt_depth": hst.integers(1, 2),
    "backbone.text_width": hst.sampled_from([8, 12, 16]),
    "backbone.vision_width": hst.sampled_from([8, 16]),
    "backbone.joint_width": hst.sampled_from([8, 16]),
    "backbone.text_layers": hst.integers(1, 3),
    "backbone.vision_layers": hst.integers(1, 3),
    "backbone.decoder_layers": hst.integers(1, 2),
    "backbone.text_heads": hst.sampled_from([1, 2, 4]),
    "backbone.vision_heads": hst.sampled_from([1, 2, 4]),
    "backbone.patch_size": hst.sampled_from([4, 8]),
    "backbone.image_size": hst.sampled_from([8, 16]),
    "backbone.max_text_len": hst.sampled_from([12, 16]),
    "backbone.use_upsampler": hst.booleans(),
    "coupler.unified_dim": hst.sampled_from([8, 16]),
    "coupler.intermediate_dim": hst.sampled_from([4, 8]),
    "coupler.attn_heads": hst.sampled_from([1, 2, 4]),
    "coupler.attn_ff_dim": hst.sampled_from([8, 16]),
    "coupler.attn_dropout": hst.sampled_from([0.0, 0.3]),
    "coupler.use_lora": hst.booleans(),
    "coupler.layernorm_first": hst.booleans(),
    "data.n_classes": hst.integers(2, 3),
    "data.align": hst.sampled_from([4, 8]),
    "data.train": hst.integers(1, 5),
    "data.val": hst.integers(1, 5),
    "data.test": hst.integers(1, 5),
    "train.micro_batch": hst.integers(1, 4),
    "train.grad_accum": hst.integers(1, 3),
    "train.augment": hst.booleans(),
    "train.learning_rate": hst.sampled_from([1e-4, 1e-2, 1.0, 10.0]),
})


def _finite_difference_agrees(model, state, batch, which: int, coord: int) -> bool:
    """One trainable coordinate's gradient of a micro-batch loss, as ``train``
    builds it without dropout, against a central difference."""
    params = [t for _, t in trainable_parameters(state, model)]
    p = params[which % len(params)]
    k, trained = coord % p.data.size, p.data
    images = np.stack([s.image for s in batch])
    masks = np.stack([s.mask for s in batch])
    tokens = [tokenize(s.phrase, model.cfg.max_text_len) for s in batch]

    def loss(shift=0.0):
        # a fresh buffer, so no probe's shift outlives it
        p.data = np.array(trained)
        p.data.reshape(-1)[k] += shift
        return training.combined_loss(model.forward(images, tokens, state), masks,
                                      training.LossConfig())

    zero_grads(params)
    loss().backward()
    grad = 0.0 if p.grad is None else p.grad.reshape(-1)[k]
    zero_grads(params)
    h = 1e-5
    fd = (loss(h).item() - loss(-h).item()) / (2 * h)
    p.data = trained
    return abs(grad - fd) <= 1e-4 * max(abs(grad), abs(fd), 1e-6)


@settings(max_examples=250, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(overrides=CONFIGS, eval_stack=hst.integers(1, 3), which=hst.integers(0, 999),
       coord=hst.integers(0, 10**6))
def test_a_run_trains_sanely_or_is_refused_before_its_first_step(overrides, eval_stack,
                                                                 which, coord, tmp_path):
    out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    args = ["train", "--set", "train.steps=2", "--set", "train.eval_every=1",
            "--set", f"data.image_size={overrides['backbone.image_size']}",
            "--out", str(out)]
    for key, value in overrides.items():
        args += ["--set", f"{key}={json.dumps(value)}"]
    runs, steps = [], []
    run_training, step = runner.run_training, training.AdamW.step

    def keeping(cfg, out_dir=None):
        dataset = runner.get_dataset(cfg)
        runs.append((dataset, *run_training(cfg, out_dir=out_dir, dataset=dataset)))
        return runs[-1][1:]

    # stacks smaller than most splits, so evaluation forwards several
    with mock.patch.object(training, "EVAL_STACK", eval_stack), \
            mock.patch.object(runner, "run_training", keeping), \
            mock.patch.object(training.AdamW, "step", lambda opt: steps.append(step(opt))):
        rc = cli.main(args)
        assert rc in (0, 1)
        if rc == 1:
            assert not steps
            return
        assert len(steps) == 2
        (dataset, art, test_dice, model, state), = runs
        records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert [r["step"] for r in records] == [1, 2]
        for dice in [r["dice"] for r in records] + [art.final_train_dice, test_dice]:
            assert 0.0 <= dice <= 1.0
        for split in ("train", "val", "test"):
            stacked = training.evaluate(model, state, dataset[split])
            assert repr(stacked) == repr(evaluate_per_sample(model, state, dataset[split]))
    batch = dataset["train"][:overrides["train.micro_batch"]]
    assert _finite_difference_agrees(model, state, batch, which, coord)


@settings(max_examples=250, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(overrides=CONFIGS, eval_stack=hst.integers(1, 3))
def test_a_runs_final_dice_equal_per_sample_evaluation(overrides, eval_stack, tmp_path):
    """After the last step, the val, train and test evaluations share one
    memo; each final dice still equals its split's per-sample evaluation."""
    out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    args = ["train", "--set", "train.steps=2", "--set", "train.eval_every=1",
            "--set", f"data.image_size={overrides['backbone.image_size']}",
            "--out", str(out)]
    for key, value in overrides.items():
        args += ["--set", f"{key}={json.dumps(value)}"]
    runs, run_training = [], runner.run_training

    def keeping(cfg, out_dir=None):
        dataset = runner.get_dataset(cfg)
        runs.append((dataset, *run_training(cfg, out_dir=out_dir, dataset=dataset)))
        return runs[-1][1:]

    with mock.patch.object(training, "EVAL_STACK", eval_stack), \
            mock.patch.object(runner, "run_training", keeping):
        if cli.main(args) == 1:
            return
    (dataset, art, test_dice, model, state), = runs
    assert test_dice is art.final_test_dice
    finals = {"train": art.final_train_dice, "val": art.final_val_dice,
              "test": art.final_test_dice}
    for split, dice in finals.items():
        assert repr(dice) == repr(evaluate_per_sample(model, state, dataset[split]))
