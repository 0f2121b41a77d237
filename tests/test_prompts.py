from unittest import mock

import numpy as np
import pytest

from promptseg import backbone
from promptseg.backbone import Backbone, BackboneConfig, tokenize
from promptseg.prompts import (
    INIT_PHRASE,
    KINDS,
    CouplerConfig,
    build_prompts,
    cocoop_condition,
    init_prompts,
    trainable_parameters,
)
from promptseg.tensor import ConfigError, Tensor

from helpers import encoder_block_outputs, reduce_sum


@pytest.fixture(scope="module")
def model():
    return Backbone(BackboneConfig(image_size=32), seed=0)


class TestInit:
    def test_deterministic(self, model):
        a = init_prompts("vpt", B=4, J=2, backbone=model, seed=5)
        b = init_prompts("vpt", B=4, J=2, backbone=model, seed=5)
        for name, t in a.params.items():
            assert np.array_equal(t.data, b.params[name].data)

    def test_sigma(self, model):
        state = init_prompts("deep-textual", B=64, J=4, backbone=model, seed=5)
        pooled = np.concatenate(
            [state.params[f"textual{i}"].data.reshape(-1) for i in range(4)]
        )
        assert pooled.size >= 8000
        assert 0.018 < pooled.std() < 0.022
        assert abs(pooled.mean()) < 0.002

    def test_depth_bounds(self, model):
        with pytest.raises(ConfigError):
            init_prompts("deep-textual", B=4, J=5, backbone=model)
        with pytest.raises(ConfigError):
            init_prompts("vpt", B=4, J=0, backbone=model)
        with pytest.raises(ConfigError):
            init_prompts("maple", B=4, J=5, backbone=model)

    def test_depth_bound_follows_the_prompted_encoders(self):
        shallow_text = Backbone(BackboneConfig(image_size=32, text_layers=2), seed=0)
        init_prompts("vpt", B=2, J=3, backbone=shallow_text)
        for kind in ("deep-textual", "cocoop", "maple", "shared-attention",
                     "shared-separate"):
            with pytest.raises(ConfigError):
                init_prompts(kind, B=2, J=3, backbone=shallow_text)

    def test_coop_is_depth_one(self, model):
        with pytest.raises(ConfigError):
            init_prompts("coop", B=4, J=2, backbone=model)

    def test_b_minimum(self, model):
        with pytest.raises(ConfigError):
            init_prompts("vpt", B=0, J=1, backbone=model)

    def test_unknown_kind(self, model):
        with pytest.raises(ConfigError):
            init_prompts("prefix-tuning", B=4, J=1, backbone=model)

    def test_photo_of_a_lookup(self, model):
        state = init_prompts("coop", B=4, J=1, backbone=model,
                             init_mode="photo-of-a", seed=5)
        ids = list(INIT_PHRASE.encode("utf-8"))
        table = model.params["text.embed"].data
        assert np.array_equal(state.params["textual0"].data, table[ids][:4])

    def test_photo_of_a_pads_beyond_phrase(self, model):
        ids = list(INIT_PHRASE.encode("utf-8"))
        B = len(ids) + 3
        state = init_prompts("coop", B=B, J=1, backbone=model,
                             init_mode="photo-of-a", seed=5)
        table = model.params["text.embed"].data
        assert np.array_equal(state.params["textual0"].data[: len(ids)], table[ids])
        assert state.params["textual0"].shape == (B, model.cfg.text_width)

    def test_photo_of_a_rejected_for_visual_kinds(self, model):
        for kind in ("vpt", "shared-attention", "shared-separate"):
            with pytest.raises(ConfigError):
                init_prompts(kind, B=4, J=1, backbone=model, init_mode="photo-of-a")

    def test_photo_of_a_deeper_depths_gaussian(self, model):
        state = init_prompts("deep-textual", B=4, J=2, backbone=model,
                             init_mode="photo-of-a", seed=5)
        ids = list(INIT_PHRASE.encode("utf-8"))
        table = model.params["text.embed"].data
        assert np.array_equal(state.params["textual0"].data, table[ids][:4])
        assert np.abs(state.params["textual1"].data).max() < 0.2

    def test_maple_ignores_unified_dim(self, model):
        """Maple's unified prompts are text-width whatever H_u says."""
        a, b = (init_prompts("maple", B=4, J=2, backbone=model, seed=3,
                             coupler=CouplerConfig(unified_dim=dim)) for dim in (16, 32))
        assert list(a.params) == list(b.params)
        for name, t in a.params.items():
            assert t.data.tobytes() == b.params[name].data.tobytes(), name

    def test_attention_heads_divide(self, model):
        with pytest.raises(ConfigError):
            init_prompts("shared-attention", B=4, J=1, backbone=model,
                         coupler=CouplerConfig(unified_dim=32, attn_heads=3))

    def test_all_prompt_tensors_trainable(self, model):
        for kind in KINDS:
            state = init_prompts(kind, B=4, J=1, backbone=model, seed=3)
            for name, t in state.params.items():
                assert t.requires_grad, (kind, name)


def block_inputs(model, monkeypatch, seq, prompts, front, layers=4):
    """Run the encoder loop with identity blocks; give each block's input."""
    inputs = []

    def identity(params, prefix, x, heads):
        inputs.append(x)
        return x

    monkeypatch.setattr(backbone, "transformer_block", identity)
    model._encode("text" if front else "vision", seq, prompts, front, layers, 1)
    return inputs


class TestInjection:
    def test_textual_prepends_at_layer_zero(self, model, monkeypatch):
        seq = Tensor(np.ones((5, 8)))
        prompts = [Tensor(np.zeros((3, 8))), Tensor(np.full((3, 8), 2.0))]
        out = block_inputs(model, monkeypatch, seq, prompts, front=True)[0]
        assert out.shape == (8, 8)
        assert np.array_equal(out.data[:3], np.zeros((3, 8)))
        assert np.array_equal(out.data[3:], seq.data)

    def test_textual_replaces_below_depth(self, model, monkeypatch):
        seq = Tensor(np.arange(40.0).reshape(5, 8))
        prompts = [Tensor(np.zeros((3, 8))), Tensor(np.full((3, 8), 2.0))]
        out = block_inputs(model, monkeypatch, seq, prompts, front=True)[1]
        assert out.shape == (8, 8)
        assert np.array_equal(out.data[:3], np.full((3, 8), 2.0))
        assert np.array_equal(out.data[3:], seq.data)

    def test_textual_passthrough_at_and_beyond_depth(self, model, monkeypatch):
        seq = Tensor(np.arange(40.0).reshape(5, 8))
        prompts = [Tensor(np.zeros((3, 8)))]
        inputs = block_inputs(model, monkeypatch, seq, prompts, front=True)
        assert len(inputs) == 4
        assert inputs[1] is inputs[0]
        assert inputs[3] is inputs[0]

    def test_empty_prompts_are_identity(self, model, monkeypatch):
        seq = Tensor(np.ones((5, 8)))
        for front in (True, False):
            for prompts in (None, []):
                inputs = block_inputs(model, monkeypatch, seq, prompts, front)
                assert all(x is seq for x in inputs), (front, prompts)

    def test_visual_appends_and_preserves_cls(self, model, monkeypatch):
        seq = Tensor(np.arange(40.0).reshape(5, 8))  # body = CLS + 4 patches
        prompts = [Tensor(np.zeros((2, 8))), Tensor(np.full((2, 8), 3.0))]
        out0, out1 = block_inputs(model, monkeypatch, seq, prompts, front=False)[:2]
        assert out0.shape == out1.shape == (7, 8)
        assert np.array_equal(out0.data[:5], seq.data)
        assert np.array_equal(out0.data[5:], np.zeros((2, 8)))
        assert np.array_equal(out1.data[:5], seq.data)
        assert np.array_equal(out1.data[5:], np.full((2, 8), 3.0))

    @pytest.mark.parametrize("branch", ["text", "vision"])
    def test_each_block_gets_its_layers_prompt(self, model, branch, monkeypatch):
        """Block 0 reads the embedded sequence with prompt 0 in front (text) or
        behind it (vision); block i below the depth reads the previous block's
        output with prompt i in place of the previous prompt's slots; every
        later block reads the previous block's output."""
        text = branch == "text"
        width = model.cfg.text_width if text else model.cfg.vision_width
        B, J = 3, 2
        inputs, outputs, block = [], [], backbone.transformer_block

        def recording(params, prefix, x, heads):
            inputs.append(x.data)
            outputs.append(block(params, prefix, x, heads))
            return outputs[-1]

        monkeypatch.setattr(backbone, "transformer_block", recording)
        tokens = tokenize("a red circle", model.cfg.max_text_len)
        image = np.random.default_rng(0).random((3, 32, 32))
        p = model.params
        if text:
            encode = lambda prompts: model.encode_text(tokens, prompts)
            embedded = p["text.embed"].data[tokens] + p["text.pos"].data[:len(tokens)]
        else:
            encode = lambda prompts: model.encode_image(image, prompts)
            cls = p["vision.cls"].data + p["vision.pos"].data[0]
            patches = model.patchify(image) @ p["vision.patch_proj"].data
            embedded = np.concatenate([cls[None], patches + p["vision.pos"].data[1:]])
        encode(None)
        assert np.array_equal(inputs[0], embedded)

        prompts = [Tensor(np.full((B, width), i + 1.0)) for i in range(J)]
        join = lambda prompt, seq: np.concatenate([prompt, seq] if text else [seq, prompt])
        inputs.clear()
        outputs.clear()
        encode(prompts)
        assert len(inputs) == len(outputs) == 4
        assert np.array_equal(inputs[0], join(prompts[0].data, embedded))
        for i in range(1, 4):
            previous = outputs[i - 1].data
            if i < J:
                previous = join(prompts[i].data, previous[B:] if text else previous[:-B])
            assert np.array_equal(inputs[i], previous), i

    def test_visual_sequence_length_constant(self, model):
        state = init_prompts("vpt", B=4, J=3, backbone=model, seed=1)
        prompts = [state.params[f"visual{i}"] for i in range(3)]
        with encoder_block_outputs() as trace:
            model.encode_image(np.zeros((3, 32, 32)), visual_prompts=prompts)
        body = 1 + model.cfg.n_patches
        assert len(trace["vision"]) == model.cfg.vision_layers
        for layer_out in trace["vision"]:
            assert layer_out.shape[0] == body + 4


class TestCoupling:
    def test_maple_textual_is_unified_identity(self, model):
        state = init_prompts("maple", B=4, J=2, backbone=model, seed=2)
        textual, visual = build_prompts(state)
        assert textual[1] is state.params["unified1"]
        assert visual[1].shape == (4, model.cfg.vision_width)

    def test_maple_lora_rank(self, model):
        rank = 2
        state = init_prompts(
            "maple", B=4, J=1, backbone=model,
            coupler=CouplerConfig(unified_dim=32, use_lora=True, intermediate_dim=rank),
            seed=2,
        )
        composed = (state.params["coupler0.lora_a"].data
                    @ state.params["coupler0.lora_b"].data.T)
        sv = np.linalg.svd(composed, compute_uv=False)
        assert np.sum(sv > 1e-10) <= rank

    def test_shared_separate_reproduces_maple(self, model):
        # copy a maple coupler into the shared-separate parameterization with
        # the text branch set to the identity map and layer norm patched out
        maple = init_prompts("maple", B=4, J=1, backbone=model, seed=3)
        ss = init_prompts(
            "shared-separate", B=4, J=1, backbone=model,
            coupler=CouplerConfig(unified_dim=32), seed=3,
        )
        ss.params["unified0"].data = maple.params["unified0"].data.copy()
        ss.params["coupler0.to_l.w"].data = np.eye(32)
        ss.params["coupler0.to_l.b"].data = np.zeros(32)
        ss.params["coupler0.to_v.w"].data = maple.params["coupler0.w"].data.copy()
        ss.params["coupler0.to_v.b"].data = maple.params["coupler0.b"].data.copy()
        (mt,), (mv,) = build_prompts(maple)
        with mock.patch("promptseg.prompts.layer_norm", lambda x, gamma, beta: x):
            (st,), (sv,) = build_prompts(ss)
        assert np.max(np.abs(mt.data - st.data)) < 1e-12
        assert np.max(np.abs(mv.data - sv.data)) < 1e-12

    def test_shared_attention_shapes(self, model):
        state = init_prompts("shared-attention", B=4, J=2, backbone=model, seed=4)
        textual, visual = build_prompts(state)
        assert [t.shape for t in textual] == [(4, model.cfg.text_width)] * 2
        assert [v.shape for v in visual] == [(4, model.cfg.vision_width)] * 2

    def test_shared_attention_dropout_only_in_train_mode(self, model):
        state = init_prompts(
            "shared-attention", B=4, J=1, backbone=model,
            coupler=CouplerConfig(unified_dim=32, attn_dropout=0.5), seed=4,
        )
        (eval_a,), _ = build_prompts(state)
        (eval_b,), _ = build_prompts(state)
        assert np.array_equal(eval_a.data, eval_b.data)
        (train_a,), _ = build_prompts(state, rng=np.random.default_rng(0))
        assert not np.array_equal(train_a.data, eval_a.data)


class TestCocoop:
    def test_wrong_kind_rejected(self, model):
        state = init_prompts("coop", B=4, J=1, backbone=model)
        with pytest.raises(ConfigError):
            cocoop_condition(state, Tensor(np.zeros(32)))

    def test_zero_meta_net_leaves_prompts_unchanged(self, model):
        state = init_prompts("cocoop", B=4, J=2, backbone=model, seed=6)
        z = Tensor(np.random.default_rng(0).normal(size=32))
        conditioned = cocoop_condition(state, z)
        for i, t in enumerate(conditioned):
            assert np.array_equal(t.data, state.params[f"textual{i}"].data)

    def test_bias_shape_independent_of_b(self, model):
        state = init_prompts("cocoop", B=7, J=1, backbone=model, seed=6)
        state.params["meta.w2"].data = np.random.default_rng(1).normal(
            size=state.params["meta.w2"].shape
        )
        z = Tensor(np.random.default_rng(2).normal(size=32))
        (conditioned,) = cocoop_condition(state, z)
        bias = conditioned.data - state.params["textual0"].data
        assert np.allclose(bias, bias[0])  # same [H_l] bias broadcast over B

    def test_different_images_condition_differently(self, model):
        state = init_prompts("cocoop", B=4, J=1, backbone=model, seed=6)
        state.params["meta.w2"].data = np.random.default_rng(1).normal(
            size=state.params["meta.w2"].shape
        )
        rng = np.random.default_rng(3)
        za = model.encode_image(rng.random((3, 32, 32))).z
        zb = model.encode_image(rng.random((3, 32, 32))).z
        a = cocoop_condition(state, za)[0].data
        b = cocoop_condition(state, zb)[0].data
        assert not np.array_equal(a, b)


class TestTrainableParameters:
    def test_coop_enumeration(self, model):
        frozen = Backbone(BackboneConfig(image_size=32, use_upsampler=False), seed=0)
        state = init_prompts("coop", B=4, J=1, backbone=frozen)
        named = trainable_parameters(state, frozen)
        assert len(named) == 1
        assert named[0][1].shape == (4, frozen.cfg.text_width)

    def test_vpt_enumeration(self, model):
        state = init_prompts("vpt", B=4, J=3, backbone=model)
        named = trainable_parameters(state, model)
        prompt_shapes = [t.shape for n, t in named if n.startswith("prompt.")]
        assert prompt_shapes == [(4, model.cfg.vision_width)] * 3
        upsampler = [n for n, _ in named if n.startswith("upsampler.")]
        assert len(upsampler) == 3

    def test_maple_closed_form_count(self, model):
        B, J = 4, 2
        H_l = model.cfg.text_width
        H_v = model.cfg.vision_width
        state = init_prompts("maple", B=B, J=J, backbone=model)
        named = trainable_parameters(state, model)
        prompt_count = sum(t.data.size for n, t in named if n.startswith("prompt."))
        assert prompt_count == J * B * H_l + J * (H_l * H_v + H_v)

    def test_no_backbone_tensor_listed(self, model):
        state = init_prompts("shared-attention", B=4, J=2, backbone=model)
        named = dict(trainable_parameters(state, model))
        backbone_frozen = set(model.frozen_param_names())
        for name in named:
            assert name.removeprefix("prompt.") not in backbone_frozen

    def test_gradients_cover_exactly_the_trainable_set(self, model):
        # backward reaches every trainable tensor and no frozen one
        rng = np.random.default_rng(7)
        img = rng.random((3, 32, 32))
        toks = tokenize("cat", 16)
        for kind in KINDS:
            state = init_prompts(kind, B=4, J=1, backbone=model, seed=8)
            if kind == "cocoop":
                state.params["meta.w2"].data = rng.normal(
                    size=state.params["meta.w2"].shape
                ) * 0.01
            out = model.forward(img, toks, state)
            reduce_sum(out * rng.normal(size=out.shape)).backward()
            for name, t in trainable_parameters(state, model):
                assert t.grad is not None, (kind, name)
                assert np.any(t.grad != 0.0), (kind, name)
            for name in model.frozen_param_names():
                assert model.params[name].grad is None, (kind, name)
            for _, t in trainable_parameters(state, model):
                t.grad = None


class TestBuildPrompts:
    def test_none_state(self):
        assert build_prompts(None) == (None, None)

    def test_textual_kind_has_no_visual(self, model):
        state = init_prompts("deep-textual", B=4, J=2, backbone=model)
        textual, visual = build_prompts(state)
        assert len(textual) == 2 and visual is None

    def test_vpt_has_no_textual(self, model):
        state = init_prompts("vpt", B=4, J=2, backbone=model)
        textual, visual = build_prompts(state)
        assert textual is None and len(visual) == 2

    def test_multimodal_has_both(self, model):
        state = init_prompts("maple", B=4, J=2, backbone=model)
        textual, visual = build_prompts(state)
        assert len(textual) == 2 and len(visual) == 2
