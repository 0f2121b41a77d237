"""Release acceptance gate.

Each test covers one numbered release criterion end to end and prints a
single ``[PASS]``/``[FAIL]`` line, so the test log doubles as a sign-off
sheet.  The criteria:

1. tape gradients match central finite differences for every trainable
   parameter of every strategy (rel. error < 1e-4, < 2 min per strategy)
2. the frozen backbone checkpoint is byte-identical after 200 training
   steps, and an injected mutation exits the CLI with code 3
3. strategy equivalences (coop / depth-1, zeroed meta-net, identity
   couplers, empty prompt lists) hold bit-identically or to 1e-12
4. prompt-slot outputs below the prompt depth are unreachable from the
   loss on the gradient tape, and all sequence lengths are exact
5. hand-evaluated loss and metric values reproduce to 1e-12
6. every strategy reaches train dice >= 0.90 within 500 steps on the
   bundled two-class task (< 10 min total), with the frozen baseline
   recorded for contrast
7. a 20-trial guided study persists and resumes deterministically,
   applicability masks hold for every strategy, and the guided-vs-random
   comparison runs and is reported
8. the upsampler ablation harness reports a signed dice delta per strategy
9. the depth-vs-dice report matches a closed-form regression oracle to 1e-9
"""

from __future__ import annotations

import copy
import time
from unittest import mock

import numpy as np
import pytest

from promptseg import checkpoint, cli, runner, training
from promptseg.backbone import Backbone, BackboneConfig, tokenize
from promptseg.dataio import SyntheticTaskSpec, generate_dataset
from promptseg.prompts import (
    KINDS,
    CouplerConfig,
    build_prompts,
    init_prompts,
    trainable_parameters,
)
from promptseg.sweep import (
    compare_tpe_random,
    default_search_space,
    depth_scatter,
    load_study,
    run_study,
    sample_trial,
)
from promptseg.training import (
    LossConfig,
    TrainRunConfig,
    bce_loss,
    combined_loss,
    dice_loss,
    dice_score,
    evaluate,
    train,
)

from helpers import corrupting, encoder_block_outputs, finite_difference, max_rel_error

# Strategy-dependent seeds with comfortable activation margin for the
# h=1e-5 central differences (a ReLU kink inside the step would make the
# difference quotient disagree with the exact tape gradient).
FD_SEEDS = {kind: 11 for kind in KINDS}
FD_SEEDS["shared-separate"] = 21


def _announce(capsys, num: int, label: str, fn):
    try:
        detail = fn()
    except BaseException as exc:
        with capsys.disabled():
            print(f"\n[FAIL] criterion {num} ({label}): "
                  f"{type(exc).__name__}: {exc}")
        raise
    with capsys.disabled():
        line = f"\n[PASS] criterion {num} ({label})"
        if detail:
            line += f": {detail}"
        print(line)


def _depth_for(kind: str, default: int = 2) -> int:
    return 1 if kind in ("coop", "shared-attention") else default


def _small_backbone(seed: int = 0, use_upsampler: bool = True) -> Backbone:
    return Backbone(BackboneConfig(image_size=16, use_upsampler=use_upsampler),
                    seed=seed)


@pytest.fixture(scope="module")
def small_sample():
    spec = SyntheticTaskSpec(n_classes=2, image_size=16,
                             samples_per_split={"train": 2}, seed=3, align=4)
    sample = generate_dataset(spec)["train"][0]
    return sample, tokenize(sample.phrase, 16)


@pytest.fixture(scope="module")
def small_dataset():
    spec = SyntheticTaskSpec(n_classes=2, image_size=16,
                             samples_per_split={"train": 8, "val": 2},
                             seed=3, align=4)
    return generate_dataset(spec)


# -- criterion 1: gradient correctness ---------------------------------------


def test_criterion_1_gradients_match_finite_differences(capsys, small_sample):
    sample, tokens = small_sample

    def run():
        worst = 0.0
        for kind in KINDS:
            t0 = time.monotonic()
            seed = FD_SEEDS[kind]
            model = _small_backbone(seed=seed)
            coupler = CouplerConfig(unified_dim=32, attn_ff_dim=32)
            state = init_prompts(kind, B=2, J=_depth_for(kind), backbone=model,
                                 coupler=coupler, seed=seed)
            if kind == "cocoop":
                # a zero meta-net output layer would leave the hidden layer
                # with an identically zero gradient; perturb it so the
                # meta-net path is actually exercised
                rng = np.random.default_rng(seed + 500)
                state.params["meta.w2"].data = rng.normal(
                    0.0, 0.05, state.params["meta.w2"].shape)
            params = trainable_parameters(state, model)
            loss_cfg = LossConfig()

            def loss():
                logits = model.forward(sample.image, tokens, state)
                return combined_loss(logits, sample.mask, loss_cfg)

            root = loss()
            root.backward()
            fd = finite_difference(lambda: loss().item(),
                                   [t for _, t in params])
            kind_worst = max(
                max_rel_error(g, t.grad)
                for g, (_, t) in zip(fd, params)
            )
            elapsed = time.monotonic() - t0
            assert kind_worst < 1e-4, f"{kind}: rel error {kind_worst:.2e}"
            assert elapsed < 120.0, f"{kind}: took {elapsed:.0f}s"
            worst = max(worst, kind_worst)
        return f"worst relative error {worst:.2e} across all strategies"

    _announce(capsys, 1, "gradients vs central differences", run)


# -- criterion 2: freeze invariant -------------------------------------------


def test_criterion_2_backbone_frozen_after_training(capsys, tmp_path,
                                                    monkeypatch, small_dataset):
    def run():
        run_cfg = TrainRunConfig(steps=200, micro_batch=2, grad_accum=1,
                                 learning_rate=1e-3, weight_decay=1e-4,
                                 seed=0, eval_every=100)

        def save(model, path):
            checkpoint.save_arrays(path, {n: t.data for n, t in model.params.items()})

        for kind in KINDS:
            # with the upsampler disabled every backbone tensor is frozen,
            # so the whole checkpoint must survive training untouched
            model = _small_backbone(seed=0, use_upsampler=False)
            state = init_prompts(kind, B=2, J=_depth_for(kind), backbone=model,
                                 coupler=CouplerConfig(unified_dim=32),
                                 seed=0)
            pre = tmp_path / f"{kind}-pre.ckpt"
            post = tmp_path / f"{kind}-post.ckpt"
            save(model, pre)
            train(model, state, small_dataset, run_cfg)
            save(model, post)
            assert pre.read_bytes() == post.read_bytes(), kind

        # mutation injection: corrupting one frozen tensor mid-training must
        # surface as CLI exit code 3
        monkeypatch.setattr(runner, "train", corrupting(training.train))
        rc = cli.main([
            "train",
            "--set", "backbone.image_size=16", "--set", "data.image_size=16",
            "--set", "data.align=4", "--set", "data.train=4",
            "--set", "data.val=2", "--set", "data.test=2",
            "--set", "train.steps=2", "--set", "train.eval_every=2",
            "--out", str(tmp_path / "sabotage"),
        ])
        monkeypatch.undo()
        assert rc == 3, f"expected exit code 3, got {rc}"
        return ("checkpoints byte-identical after 200 steps for all "
                "strategies; mutation exits with code 3")

    _announce(capsys, 2, "frozen-backbone invariant", run)


# -- criterion 3: equivalence suite ------------------------------------------


def test_criterion_3_strategy_equivalences(capsys, small_sample):
    sample, tokens = small_sample

    def forward_bytes(model, state):
        return model.forward(sample.image, tokens, state).data.tobytes()

    def run():
        model = _small_backbone(seed=0)

        # (a) depth-1 deep-textual and coop draw the same parameters and
        # produce bit-identical logits
        coop = init_prompts("coop", B=2, J=1, backbone=model, seed=5)
        deep = init_prompts("deep-textual", B=2, J=1, backbone=model, seed=5)
        assert forward_bytes(model, coop) == forward_bytes(model, deep)

        # (b) cocoop starts with a zeroed meta-net output layer, so its
        # image-conditioned bias is exactly zero and it matches coop
        cocoop = init_prompts("cocoop", B=2, J=1, backbone=model, seed=5)
        assert np.all(cocoop.params["meta.w2"].data == 0.0)
        assert np.array_equal(cocoop.params["textual0"].data,
                              coop.params["textual0"].data)
        assert forward_bytes(model, cocoop) == forward_bytes(model, coop)

        # (c) shared-separate with identity text map, no layer norm, and the
        # same vision map reproduces maple
        maple = init_prompts("maple", B=2, J=2, backbone=model,
                             coupler=CouplerConfig(unified_dim=32), seed=5)
        ss = init_prompts("shared-separate", B=2, J=2, backbone=model,
                          coupler=CouplerConfig(unified_dim=32), seed=5)
        for i in range(2):
            ss.params[f"unified{i}"].data = maple.params[f"unified{i}"].data.copy()
            ss.params[f"coupler{i}.to_l.w"].data = np.eye(32)
            ss.params[f"coupler{i}.to_l.b"].data = np.zeros(32)
            ss.params[f"coupler{i}.to_v.w"].data = maple.params[f"coupler{i}.w"].data.copy()
            ss.params[f"coupler{i}.to_v.b"].data = maple.params[f"coupler{i}.b"].data.copy()
        out_m = model.forward(sample.image, tokens, maple).data
        with mock.patch("promptseg.prompts.layer_norm", lambda x, gamma, beta: x):
            out_s = model.forward(sample.image, tokens, ss).data
        diff = float(np.max(np.abs(out_m - out_s)))
        assert diff < 1e-12, f"maple vs shared-separate diff {diff:.2e}"

        # (d) empty prompt lists reduce bit-identically to the plain encoders
        txt_plain = model.encode_text(tokens)
        txt_empty = model.encode_text(tokens, textual_prompts=[])
        assert txt_plain.z.data.tobytes() == txt_empty.z.data.tobytes()
        assert txt_plain.final_seq.data.tobytes() == txt_empty.final_seq.data.tobytes()
        assert txt_plain.eos_index == txt_empty.eos_index
        img_plain = model.encode_image(sample.image)
        img_empty = model.encode_image(sample.image, visual_prompts=[])
        assert img_plain.patch_tokens.data.tobytes() == img_empty.patch_tokens.data.tobytes()
        assert img_plain.z.data.tobytes() == img_empty.z.data.tobytes()
        plain = model.decode(img_plain.patch_tokens, txt_plain.z).data.tobytes()
        empty = model.decode(img_empty.patch_tokens, txt_empty.z).data.tobytes()
        assert plain == empty == model.forward(sample.image, tokens).data.tobytes()
        return "all four equivalences hold (bit-identical / < 1e-12)"

    _announce(capsys, 3, "strategy equivalences", run)


# -- criterion 4: slot semantics ---------------------------------------------


def _simulate_prompt_liveness(K: int, J: int, B: int, n_body: int,
                              side: str, readout: set[int]) -> list[bool]:
    """Independent provenance simulation of the discard-and-reinject
    recursion.  Each slot carries the set of (layer) tags of the prompt-slot
    outputs its value depends on; a block output depends on every input slot.
    Returns, per layer, whether that layer's prompt-slot outputs can reach
    the readout slots.
    """
    seq: list[set] = [set() for _ in range(n_body)]
    for i in range(K):
        if side == "text":
            if i == 0:
                seq = [set() for _ in range(B)] + seq
            elif i < J:
                seq = [set() for _ in range(B)] + seq[B:]
            prompt_ix = set(range(B))
        else:
            if i == 0:
                seq = seq + [set() for _ in range(B)]
            elif i < J:
                seq = seq[:n_body] + [set() for _ in range(B)]
            prompt_ix = set(range(len(seq) - B, len(seq)))
        mixed = set().union(*seq)
        seq = [mixed | ({i} if j in prompt_ix else set())
               for j in range(len(seq))]
    reach = set().union(*(seq[s] for s in readout))
    return [i in reach for i in range(K)]


def test_criterion_4_slot_semantics(capsys, small_sample):
    sample, tokens = small_sample

    def run():
        model = _small_backbone(seed=0)
        cfg = model.cfg
        K = cfg.text_layers
        n = len(tokens)
        body_len = 1 + cfg.n_patches
        loss_cfg = LossConfig()
        checked = 0
        for B in (1, 4, 8):
            for J in range(1, K + 1):
                # textual side
                state = init_prompts("deep-textual", B=B, J=J, backbone=model,
                                     seed=0)
                textual, _ = build_prompts(state)
                with encoder_block_outputs() as trace:
                    txt = model.encode_text(tokens, textual_prompts=textual)
                img = model.encode_image(sample.image)
                loss = combined_loss(model.decode(img.patch_tokens, txt.z),
                                     sample.mask, loss_cfg)
                loss.backward()
                assert txt.eos_index == int(np.flatnonzero(tokens == tokens[-1])[0]) + B
                expected = _simulate_prompt_liveness(
                    K, J, B, n, "text", {txt.eos_index})
                for i, layer_out in enumerate(trace["text"]):
                    assert layer_out.shape == (B + n, cfg.text_width)
                    rows = layer_out.grad[:B]
                    if expected[i]:
                        assert np.any(rows != 0.0), (B, J, i)
                    else:
                        assert np.all(rows == 0.0), (B, J, i)

                # visual side
                state = init_prompts("vpt", B=B, J=J, backbone=model, seed=0)
                _, visual = build_prompts(state)
                with encoder_block_outputs() as trace:
                    img = model.encode_image(sample.image, visual_prompts=visual)
                txt = model.encode_text(tokens)
                loss = combined_loss(model.decode(img.patch_tokens, txt.z),
                                     sample.mask, loss_cfg)
                loss.backward()
                expected = _simulate_prompt_liveness(
                    K, J, B, body_len, "vision", set(range(1, body_len)))
                for i, layer_out in enumerate(trace["vision"]):
                    assert layer_out.shape == (body_len + B, cfg.vision_width)
                    rows = layer_out.grad[body_len:]
                    if expected[i]:
                        assert np.any(rows != 0.0), (B, J, i)
                    else:
                        assert np.all(rows == 0.0), (B, J, i)
                checked += 1
        return (f"{checked} (J, B) combinations: discarded prompt outputs "
                "carry exactly zero gradient, sequence lengths exact")

    _announce(capsys, 4, "prompt slot semantics", run)


# -- criterion 5: hand-evaluated loss values ---------------------------------


def test_criterion_5_loss_hand_values(capsys):
    from promptseg.tensor import Tensor

    def run():
        big = 500.0  # saturates sigmoid to exact 0/1 in float64
        logits = Tensor(np.array([big, big, -big, -big]), requires_grad=True)
        mask = np.array([1.0, 0.0, 0.0, 0.0])
        # p = [1,1,0,0], g = [1,0,0,0]: dice = 2*1 / (2+1) -> loss 1/3
        assert abs(dice_loss(logits, mask, smooth=0.0).item() - 1.0 / 3.0) < 1e-12

        zero = Tensor(np.zeros(5), requires_grad=True)
        assert abs(bce_loss(zero, np.ones(5)).item() - np.log(2.0)) < 1e-12

        # weighted sum with the shipped coefficients: 1.0*0.5 + 0.2*0.3 = 0.56
        cfg = LossConfig()
        assert abs(cfg.lambda_dice * 0.5 + cfg.lambda_ce * 0.3 - 0.56) < 1e-12
        rng = np.random.default_rng(0)
        free = Tensor(rng.normal(0.0, 2.0, (6, 6)), requires_grad=True)
        gmask = (rng.random((6, 6)) > 0.5).astype(np.float64)
        combined = combined_loss(free, gmask, cfg).item()
        parts = (cfg.lambda_dice * dice_loss(free, gmask, cfg.smooth).item()
                 + cfg.lambda_ce * bce_loss(free, gmask).item())
        assert abs(combined - parts) < 1e-12

        # hard-mask overlap metric
        assert dice_score(np.array([1, 1, 0, 0]), np.array([1, 0, 0, 0])) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert dice_score(np.zeros(4), np.zeros(4)) == 1.0
        return "dice 1/3, BCE ln 2, combined 0.56 all reproduce to 1e-12"

    _announce(capsys, 5, "hand-evaluated loss values", run)


# -- criterion 6: desk-scale learning ----------------------------------------


def test_criterion_6_every_strategy_learns(capsys):
    def run():
        t0 = time.monotonic()
        spec = SyntheticTaskSpec(
            n_classes=2, image_size=32,
            samples_per_split={"train": 48, "val": 12, "test": 12},
            seed=7, align=8)
        dataset = generate_dataset(spec)
        seed = 11
        baseline_model = Backbone(BackboneConfig(image_size=32), seed=seed)
        baseline = evaluate(baseline_model, None, dataset["train"])
        run_cfg = TrainRunConfig(steps=500, micro_batch=4, grad_accum=2,
                                 learning_rate=1e-3, weight_decay=1e-4,
                                 seed=seed, eval_every=250)
        results = {}
        for kind in KINDS:
            model = Backbone(BackboneConfig(image_size=32), seed=seed)
            state = init_prompts(kind, B=4, J=_depth_for(kind), backbone=model,
                                 coupler=CouplerConfig(unified_dim=32),
                                 seed=seed)
            artifacts = train(model, state, dataset, run_cfg)
            results[kind] = artifacts.final_train_dice
            assert artifacts.final_train_dice >= 0.90, (
                f"{kind}: train dice {artifacts.final_train_dice:.3f}")
            # the 50-step moving average of the training loss must have
            # dropped between step 50 and step 500
            losses = [m["loss"] for m in artifacts.metrics]
            early = float(np.mean(losses[:50]))
            late = float(np.mean(losses[-50:]))
            assert late < early, f"{kind}: loss {early:.4f} -> {late:.4f}"
        elapsed = time.monotonic() - t0
        assert elapsed < 600.0, f"took {elapsed:.0f}s"
        dice = ", ".join(f"{k}={v:.3f}" for k, v in results.items())
        return (f"train dice [{dice}] vs frozen baseline {baseline:.3f} "
                f"in {elapsed:.0f}s")

    _announce(capsys, 6, "desk-scale learning", run)


# -- criterion 7: sweep behavior ---------------------------------------------


@pytest.fixture(scope="module")
def sweep_setup(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance-sweep")
    cfg = runner.load_config(overrides=[
        ("strategy", "coop"),
        ("backbone.image_size", "16"), ("data.image_size", "16"),
        ("data.align", "4"), ("data.train", "8"), ("data.val", "4"),
        ("data.test", "4"),
        ("train.micro_batch", "2"), ("train.grad_accum", "1"),
        ("train.eval_every", "100"),
        ("sweep.steps", "8"),
    ])
    dataset = runner.get_dataset(cfg)
    objective = runner.make_objective(cfg, dataset)
    space = runner.sweep_space(cfg)
    full = run_study("coop", space, 20, objective, seed=5,
                     out_path=tmp / "full.jsonl")
    return {"tmp": tmp, "objective": objective, "space": space, "full": full}


def test_criterion_7_sweep_behavior(capsys, sweep_setup):
    def run():
        space = sweep_setup["space"]
        objective = sweep_setup["objective"]
        tmp = sweep_setup["tmp"]
        full = sweep_setup["full"]
        assert len(full.records) == 20
        assert all(r.status == "complete" for r in full.records)

        # persisted file round-trips, including the sampler state
        loaded = load_study(tmp / "full.jsonl")
        assert [r.to_json() for r in loaded.records] == [
            r.to_json() for r in full.records]
        assert loaded.rng.bit_generator.state == full.rng.bit_generator.state

        # resuming an interrupted study reproduces the uninterrupted one
        part = tmp / "part.jsonl"
        run_study("coop", space, 8, objective, seed=5, out_path=part)
        resumed = run_study("coop", space, 20, objective, seed=5,
                            out_path=part)

        def strip_time(rec):
            return {k: v for k, v in rec.to_json().items() if k != "wall_time"}

        assert [strip_time(r) for r in resumed.records] == [
            strip_time(r) for r in full.records]

        # applicability masks hold for every strategy (property check)
        always = {"learning_rate", "weight_decay", "prompt_depth"}
        expected_keys = {
            "coop": always, "deep-textual": always, "vpt": always,
            "cocoop": always | {"intermediate_dim", "use_lora"},
            "maple": always | {"intermediate_dim", "use_lora"},
            "shared-attention": always | {"attn_heads", "attn_dropout",
                                          "attn_ff_dim", "layernorm_first"},
            "shared-separate": always | {"shared_dim"},
        }
        rng = np.random.default_rng(0)
        wide = default_search_space()
        for strategy, keys in expected_keys.items():
            for _ in range(30):
                assert set(sample_trial(wide, strategy, [], rng)) == keys

        # guided-vs-random paired comparison, executed and reported
        comp = compare_tpe_random(n_trials=20, n_reps=10, seed=3)
        assert len(comp["tpe_best"]) == len(comp["random_best"]) == 10
        assert comp["tpe_median"] >= comp["random_median"] - 1e-9
        return (f"20-trial study resumed deterministically; guided median "
                f"{comp['tpe_median']:.3f} vs random median "
                f"{comp['random_median']:.3f}")

    _announce(capsys, 7, "sweep persistence, resume, and comparison", run)


# -- criterion 8: upsampler ablation harness ---------------------------------


def test_criterion_8_upsampler_ablation(capsys):
    def run():
        base = runner.load_config(overrides=[
            ("backbone.image_size", "16"), ("data.image_size", "16"),
            ("data.align", "4"), ("data.train", "8"), ("data.val", "4"),
            ("data.test", "4"),
            ("train.steps", "40"), ("train.micro_batch", "2"),
            ("train.grad_accum", "1"), ("train.eval_every", "100"),
        ])
        dataset = runner.get_dataset(base)
        deltas = {}
        for kind in KINDS:
            cfg = copy.deepcopy(base)
            cfg["strategy"] = kind
            if kind == "coop":
                cfg["prompt_depth"] = 1
            arm_dice = {}
            for use_upsampler in (True, False):
                cfg["backbone"]["use_upsampler"] = use_upsampler
                model = runner.build_backbone(cfg)
                state = runner.build_state(cfg, model)
                run_cfg = runner.build_run_cfg(cfg)
                train(model, state, dataset, run_cfg)
                arm_dice[use_upsampler] = evaluate(model, state,
                                                   dataset["test"])
            deltas[kind] = arm_dice[True] - arm_dice[False]
            assert np.isfinite(deltas[kind])
        report = ", ".join(f"{k}={d:+.3f}" for k, d in deltas.items())
        # the reference mean drop of 2.59 dice points comes from full-scale
        # pretrained models and is contextual only, never asserted here
        return (f"signed with-minus-without deltas [{report}] "
                "(full-scale reference drop: 2.59 points, context only)")

    _announce(capsys, 8, "upsampler ablation harness", run)


# -- criterion 9: depth analysis vs regression oracle ------------------------


def test_criterion_9_depth_report_matches_regression_oracle(capsys,
                                                            sweep_setup):
    def run():
        scatter = depth_scatter(sweep_setup["full"])
        points = scatter["points"]
        assert len(points) == 20
        x = np.array([p[0] for p in points])
        y = np.array([p[1] for p in points])
        assert len(set(x)) >= 2
        slope, intercept = np.polyfit(x, y, 1)
        r2 = float(np.corrcoef(x, y)[0, 1]) ** 2
        fit = scatter["fit"]
        assert fit["slope"] == pytest.approx(slope, abs=1e-9)
        assert fit["intercept"] == pytest.approx(intercept, abs=1e-9)
        assert fit["r2"] == pytest.approx(r2, abs=1e-9)
        return (f"fit slope {fit['slope']:+.4f}, R^2 {fit['r2']:.4f} match "
                "the closed-form oracle to 1e-9")

    _announce(capsys, 9, "depth-vs-dice regression report", run)
