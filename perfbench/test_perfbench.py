"""Tests of the benchmark itself: a tiny run of each workload, and each
correctness check shown to fire when it is fed a corrupted output."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, layers, workloads
from perfbench.run import WORKLOAD_NAMES
from promptseg import backbone, checkpoint, runner, sweep, tensor, training

ROOT = Path(__file__).resolve().parent.parent


def tiny(name: str, steps: int = 4) -> workloads.Workload:
    """A workload at a few samples, steps and trials."""
    w = workloads.WORKLOADS[name]
    small = [("data.train", "4"), ("data.val", "2"), ("data.test", "2"),
             ("train.steps", str(steps)), ("sweep.steps", str(steps)),
             ("sweep.n_trials", "3")]
    if w.kind == "train":
        small += [("backbone.image_size", "16"), ("data.image_size", "16")]
    return dataclasses.replace(w, overrides=(*w.overrides, *small), min_train_dice=None)


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings() -> dict:
    mods = (backbone, checkpoint, runner, sweep, tensor, training)
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    for cls in (tensor.Tensor, backbone.Backbone, training.AdamW):
        out.update(((cls.__name__, k), v) for k, v in vars(cls).items() if callable(v))
    return out


def test_benchmark_json_matches_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.DECLARED)
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_run_reports_every_end_to_end_metric(name, tmp_path, spec):
    res = workloads.run_workload(tiny(name), 5, 0.0, False, tmp_path)
    assert res["correct"], res["failures"]
    assert res["failed"] == 0 and res["attempted"] > 0
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == [
        (m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_traced_run_repeats_its_counts_and_unhooks(name, tmp_path, spec):
    before = _bindings()
    a = workloads.run_workload(tiny(name), 5, 0.0, True, tmp_path / "a")
    b = workloads.run_workload(tiny(name), 5, 0.0, True, tmp_path / "b")
    assert _bindings() == before
    assert a["correct"] and b["correct"], a["failures"] + b["failures"]
    assert list(a["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert all(v["value"] > 0 for v in a["metrics"].values())
    counts = [k for k, v in a["metrics"].items() if v["unit"] == "count"]
    assert [a["metrics"][k] for k in counts] == [b["metrics"][k] for k in counts]
    spans = json.loads((tmp_path / "a" / "spans.json").read_text())
    assert spans["fields"][:6] == ["id", "parent", "name", "run", "start_ns", "end_ns"]
    assert "runner.run_training" in spans["names"]
    summary = json.loads((tmp_path / "a" / "trace-summary.json").read_text())
    assert "trace.overhead_pct" in summary


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- each check fires on a corrupted output ----------------------------------


@pytest.fixture(scope="module")
def trained():
    cfg = workloads.with_strategy(
        workloads.make_config(tiny("train-fixed", steps=12), 5), "maple")
    data = runner.get_dataset(cfg)
    before = checks.frozen_hash(runner.build_backbone(cfg), True)
    artifacts, _, model, state = runner.run_training(cfg, dataset=data, seed=1)
    params = [*state.params.values(), *(model.params[n] for n in checks.UPSAMPLER)]
    return cfg, data, artifacts, model, state, before, params


def _logits(model, state, samples):
    return [model.forward(s.image, workloads.phrase_tokens(model, s.phrase), state).data
            for s in samples]


def test_dice_check_fires_on_a_flipped_mask(trained):
    cfg, data, artifacts, model, state, _, _ = trained
    samples = data["train"]
    logits = _logits(model, state, samples)
    masks = [s.mask for s in samples]
    assert checks.check_dice(checks.mean_dice(logits, masks),
                             artifacts.final_train_dice, "dice") == []
    i = int(np.argmax([(z > 0).sum() for z in logits]))
    assert (logits[i] > 0).any()
    masks[i] = 1 - masks[i]
    assert checks.check_dice(checks.mean_dice(logits, masks),
                             artifacts.final_train_dice, "dice")


def test_own_loss_matches_the_program_loss(trained):
    cfg, data, _, model, state, _, _ = trained
    t = cfg["train"]
    loss_cfg = training.LossConfig(t["lambda_dice"], t["lambda_ce"], t["smooth"])
    for s, z in zip(data["train"], _logits(model, state, data["train"])):
        program = training.combined_loss(tensor.Tensor(z), s.mask, loss_cfg).item()
        own = checks.own_loss(z, s.mask, t["lambda_dice"], t["lambda_ce"], t["smooth"])
        assert abs(own - program) <= 1e-12


def test_gradient_check_fires_on_a_perturbed_gradient(trained):
    cfg, data, _, model, state, _, params = trained
    batch, t = data["train"][:2], cfg["train"]
    saved = [p.data.tobytes() for p in params]
    grads = workloads.tape_gradients(model, state, batch, t, params)
    good = workloads.gradient_error(model, state, batch, t, 0, params, grads)
    assert checks.check_gradient(good, "grad") == []
    assert [p.data.tobytes() for p in params] == saved
    scaled = [g * (1 + 1e-3) for g in grads]
    assert checks.check_gradient(
        workloads.gradient_error(model, state, batch, t, 0, params, scaled), "grad")
    # a backward rule that drops one parameter's gradient
    dropped = [g.copy() for g in grads]
    dropped[int(np.argmax([np.linalg.norm(g) for g in grads]))][...] = 0.0
    assert checks.check_gradient(
        workloads.gradient_error(model, state, batch, t, 0, params, dropped), "grad")


def test_freeze_check_fires_on_a_changed_frozen_array(trained):
    _, _, _, model, _, before, _ = trained
    assert checks.check_frozen(before, model, True) == []
    w = model.params["text.layer0.wq"]
    saved = w.data
    try:
        w.data = saved.copy()
        w.data[0, 0] = np.nextafter(w.data[0, 0], np.inf)
        assert checks.check_frozen(before, model, True)
    finally:
        w.data = saved
    assert checks.check_frozen(before, model, True) == []


def test_checkpoint_check_fires_on_a_changed_array(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {"prompt.unified0": rng.normal(size=(4, 32)), "upsampler.bias": np.zeros(1),
              "upsampler.residual_factor": np.asarray(0.1)}
    path = tmp_path / "prompts.ckpt"
    checkpoint.save_arrays(path, arrays)
    assert checks.check_checkpoint(path, arrays) == []
    changed = dict(arrays)
    changed["prompt.unified0"] = arrays["prompt.unified0"].copy()
    changed["prompt.unified0"][1, 2] = np.nextafter(changed["prompt.unified0"][1, 2], 0)
    assert checks.check_checkpoint(path, changed)
    assert checks.check_checkpoint(path, {**arrays, "prompt.extra": np.ones(2)})


def test_study_check_fires_on_bad_trials_and_a_stale_file(tmp_path):
    path = tmp_path / "study.jsonl"
    space = sweep.default_search_space(3)

    def objective(cfg, seed):
        v = sweep.quadratic_objective(cfg)
        return v, v

    study = sweep.run_study("shared-attention", space, 12, objective, seed=4,
                            out_path=path)
    assert checks.check_study(study, 12, path) == []
    assert checks.check_study(study, 13, path)
    rec = study.records[3]
    for key, value in (("prompt_depth", 4), ("attn_heads", 3), ("layernorm_first", 1)):
        bad = dict(rec.config, **{key: value})
        assert checks.check_trial_config(bad)
    saved = rec.val_dice
    rec.val_dice = 1.5
    assert checks.check_study(study, 12, path)
    rec.val_dice = saved

    class WrongBest:   # the same study, but its best is the worst trial
        records, rng = study.records, study.rng
        best = min(study.records, key=lambda t: t.val_dice)

    assert WrongBest.best.val_dice < study.best.val_dice
    assert any("arg-max" in m for m in checks.check_study(WrongBest, 12, path))
    study.rng.random()
    assert checks.check_study(study, 12, path)
