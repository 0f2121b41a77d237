import numpy as np
import pytest

from promptseg.backbone import (
    BOS_ID,
    EOS_ID,
    VOCAB_SIZE,
    Backbone,
    BackboneConfig,
    TokenizationError,
    tokenize,
)
from promptseg import runner
from promptseg.prompts import KINDS, CouplerConfig, init_prompts
from promptseg.tensor import ConfigError, ShapeError, Tensor

from helpers import load_arrays


def small_cfg(**kw):
    base = dict(image_size=32, use_upsampler=True)
    base.update(kw)
    return BackboneConfig(**base)


class TestTokenize:
    def test_wraps_in_bos_eos(self):
        ids = tokenize("ab", max_len=16)
        assert ids.tolist() == [BOS_ID, ord("a"), ord("b"), EOS_ID]

    def test_vocab_covers_bytes_plus_markers(self):
        assert VOCAB_SIZE == 258
        assert BOS_ID == 256 and EOS_ID == 257

    def test_overflow_rejected(self):
        with pytest.raises(TokenizationError):
            tokenize("x" * 20, max_len=16)

    def test_exact_fit_accepted(self):
        assert len(tokenize("x" * 14, max_len=16)) == 16


class TestConfig:
    def test_patch_divisibility(self):
        with pytest.raises(ConfigError):
            BackboneConfig(image_size=30, patch_size=8)

    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            BackboneConfig(text_heads=5)
        with pytest.raises(ConfigError):
            BackboneConfig(vision_heads=7)

    def test_layer_minimum(self):
        with pytest.raises(ConfigError):
            BackboneConfig(text_layers=0)

    def test_patch_arithmetic(self):
        cfg = BackboneConfig(image_size=64, patch_size=8)
        assert cfg.grid == 8
        assert cfg.n_patches == (64 // 8) ** 2


class TestPatchify:
    def test_shape(self):
        model = Backbone(small_cfg())
        out = model.patchify(np.zeros((3, 32, 32)))
        assert out.shape == (16, 3 * 8 * 8)

    def test_wrong_shape_rejected(self):
        model = Backbone(small_cfg())
        with pytest.raises(ShapeError):
            model.patchify(np.zeros((1, 32, 32)))

    def test_patch_content_preserved(self):
        model = Backbone(small_cfg())
        rng = np.random.default_rng(0)
        img = rng.random((3, 32, 32))
        patches = model.patchify(img)
        # top-left patch is the first row, laid out channel-major
        expected = img[:, :8, :8].reshape(-1)
        assert np.array_equal(patches[0], expected)
        # bottom-right patch is the last row
        expected = img[:, 24:, 24:].reshape(-1)
        assert np.array_equal(patches[-1], expected)


class TestEncodeText:
    def test_requires_exactly_one_eos(self):
        model = Backbone(small_cfg())
        with pytest.raises(TokenizationError):
            model.encode_text(np.array([BOS_ID, 97, 98]))
        with pytest.raises(TokenizationError):
            model.encode_text(np.array([BOS_ID, EOS_ID, EOS_ID]))

    def test_length_cap(self):
        model = Backbone(small_cfg())
        with pytest.raises(TokenizationError):
            model.encode_text(np.concatenate([np.full(20, 97), [EOS_ID]]))

    def test_shapes_without_prompts(self):
        model = Backbone(small_cfg())
        enc = model.encode_text(tokenize("cat", 16))
        assert enc.z.shape == (model.cfg.joint_width,)
        assert enc.final_seq.shape == (5, model.cfg.text_width)
        assert enc.eos_index == 4

    def test_eos_index_shifts_by_prompt_length(self):
        model = Backbone(small_cfg())
        state = init_prompts("deep-textual", B=4, J=2, backbone=model, seed=1)
        prompts = [state.params[f"textual{i}"] for i in range(2)]
        enc = model.encode_text(tokenize("cat", 16), textual_prompts=prompts)
        assert enc.eos_index == 4 + 4
        assert enc.final_seq.shape == (4 + 5, model.cfg.text_width)

    def test_identical_prefix_gives_identical_embedding(self):
        # trailing bytes after EOS never occur; same tokens -> same z
        model = Backbone(small_cfg())
        a = model.encode_text(tokenize("dog", 16)).z.data
        b = model.encode_text(tokenize("dog", 16)).z.data
        assert np.array_equal(a, b)


class TestEncodeImage:
    def test_shapes(self):
        model = Backbone(small_cfg())
        enc = model.encode_image(np.zeros((3, 32, 32)))
        assert enc.z.shape == (model.cfg.joint_width,)
        assert enc.patch_tokens.shape == (16, model.cfg.vision_width)

    def test_patch_tokens_exclude_prompts(self):
        model = Backbone(small_cfg())
        state = init_prompts("vpt", B=4, J=3, backbone=model, seed=2)
        prompts = [state.params[f"visual{i}"] for i in range(3)]
        enc = model.encode_image(np.zeros((3, 32, 32)), visual_prompts=prompts)
        assert enc.patch_tokens.shape == (16, model.cfg.vision_width)

    def test_zero_image_zero_pos_symmetry(self):
        model = Backbone(small_cfg())
        model.params["vision.pos"].data = np.zeros_like(model.params["vision.pos"].data)
        enc = model.encode_image(np.zeros((3, 32, 32)))
        tokens = enc.patch_tokens.data
        assert np.allclose(tokens, tokens[0], atol=1e-12)


class TestDecode:
    def test_logit_shape(self):
        model = Backbone(small_cfg())
        enc = model.encode_image(np.random.default_rng(3).random((3, 32, 32)))
        txt = model.encode_text(tokenize("cat", 16))
        out = model.decode(enc.patch_tokens, txt.z)
        assert out.shape == (32, 32)

    def test_token_count_checked(self):
        model = Backbone(small_cfg())
        txt = model.encode_text(tokenize("cat", 16))
        with pytest.raises(ShapeError):
            model.decode(Tensor(np.zeros((7, 32))), txt.z)

    def test_upsampler_off_equals_body(self):
        model = Backbone(small_cfg())
        # same seed, same weights: only the decoder's upsampler step differs
        body_only = Backbone(small_cfg(use_upsampler=False))
        rng = np.random.default_rng(4)
        enc = model.encode_image(rng.random((3, 32, 32)))
        txt = model.encode_text(tokenize("cat", 16))
        with_off = body_only.decode(enc.patch_tokens, txt.z)
        model.params["upsampler.residual_factor"].data = np.asarray(0.0)
        with_zero = model.decode(enc.patch_tokens, txt.z)
        assert np.array_equal(with_off.data, with_zero.data)

    def test_upsampler_changes_output(self):
        model = Backbone(small_cfg())
        body_only = Backbone(small_cfg(use_upsampler=False))
        rng = np.random.default_rng(5)
        enc = model.encode_image(rng.random((3, 32, 32)))
        txt = model.encode_text(tokenize("cat", 16))
        body = body_only.decode(enc.patch_tokens, txt.z)
        full = model.decode(enc.patch_tokens, txt.z)
        assert not np.array_equal(body.data, full.data)

    def test_tile_assembly_geometry(self):
        # one logit tile per patch token: zeroing the unembedding and writing a
        # recognizable bias pattern localizes each tile in the output map
        model = Backbone(small_cfg(decoder_layers=1, use_upsampler=False))
        ps = model.cfg.patch_size
        model.params["decoder.unembed.w"].data = np.zeros_like(
            model.params["decoder.unembed.w"].data
        )
        tile = np.arange(ps * ps, dtype=np.float64)
        model.params["decoder.unembed.b"].data = tile
        enc = model.encode_image(np.random.default_rng(6).random((3, 32, 32)))
        txt = model.encode_text(tokenize("cat", 16))
        out = model.decode(enc.patch_tokens, txt.z)
        for gy in range(model.cfg.grid):
            for gx in range(model.cfg.grid):
                block = out.data[gy * ps:(gy + 1) * ps, gx * ps:(gx + 1) * ps]
                assert np.array_equal(block, tile.reshape(ps, ps))


class TestForward:
    def test_shape_for_every_strategy_and_depth(self):
        model = Backbone(small_cfg())
        rng = np.random.default_rng(7)
        img = rng.random((3, 32, 32))
        toks = tokenize("cat", 16)
        for kind in ("deep-textual", "coop", "cocoop", "vpt", "maple",
                     "shared-attention", "shared-separate"):
            for J in (1, 2):
                if kind == "coop" and J != 1:
                    continue
                state = init_prompts(kind, B=4, J=J, backbone=model,
                                     coupler=CouplerConfig(), seed=8)
                out = model.forward(img, toks, state)
                assert out.shape == (32, 32), (kind, J)

    def test_repeat_calls_bit_identical(self):
        model = Backbone(small_cfg())
        rng = np.random.default_rng(9)
        img = rng.random((3, 32, 32))
        toks = tokenize("cat", 16)
        state = init_prompts("maple", B=4, J=2, backbone=model, seed=10)
        a = model.forward(img, toks, state).data
        b = model.forward(img, toks, state).data
        assert np.array_equal(a, b)

    def test_stack_gives_each_sample_its_own_logits(self):
        model = Backbone(small_cfg())
        images = np.random.default_rng(11).random((3, 3, 32, 32))
        toks = [tokenize(p, 16) for p in ("cat", "dog", "cat")]
        state = init_prompts("cocoop", B=4, J=2, backbone=model, seed=12)
        out = model.forward(images, toks, state)
        assert out.shape == (3, 32, 32)
        for img, t, logits in zip(images, toks, out.data):
            assert np.array_equal(logits, model.forward(img, t, state).data)
        with pytest.raises(ShapeError, match="3 images but 2 token arrays"):
            model.forward(images, toks[:2], state)

    def test_mismatched_stack_fails_before_any_work(self, monkeypatch):
        model = Backbone(small_cfg())
        images = np.random.default_rng(13).random((2, 3, 32, 32))

        def no_work(*args, **kwargs):
            raise AssertionError("encoded an image of a mismatched stack")

        monkeypatch.setattr(model, "encode_image", no_work)
        with pytest.raises(ShapeError, match="2 images but 1 token arrays"):
            model.forward(images, [tokenize("cat", 16)], None)


def graph_nodes(root: Tensor) -> int:
    """Tensors with parents that ``root`` is computed from, itself included."""
    seen, stack, count = set(), [root], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        count += bool(t._parents)
        stack.extend(t._parents)
    return count


class TestGraphSize:
    """Python dispatch per node is what a step costs: a single-sample forward
    at the default config stays a graph of fused ops, one node per
    transformer block (31-57 nodes; 150-190 with each block a chain of 12
    nodes, 330-400 from elementary ops alone)."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_sample_forward_stays_small(self, kind):
        cfg = runner.default_config()
        cfg["strategy"] = kind
        model = runner.build_backbone(cfg)
        state = runner.build_state(cfg, model)
        img = np.random.default_rng(13).random((3, 32, 32))
        logits = model.forward(img, tokenize("a red circle", 16), state)
        assert graph_nodes(logits) <= 60


class TestFreezeBookkeeping:
    def test_upsampler_trainable_rest_frozen(self):
        model = Backbone(small_cfg(use_upsampler=True))
        for name, t in model.params.items():
            expected = name in Backbone.UPSAMPLER_NAMES
            assert t.requires_grad is expected, name

    def test_no_upsampler_all_frozen(self):
        model = Backbone(small_cfg(use_upsampler=False))
        assert all(not t.requires_grad for t in model.params.values())
        assert model.upsampler_parameters() == []

    def test_checksum_stable_and_sensitive(self):
        model = Backbone(small_cfg())
        ref = model.frozen_checksum()
        assert model.frozen_checksum() == ref
        model.params["text.proj"].data[0, 0] += 1e-12
        assert model.frozen_checksum() != ref

    def test_checksum_ignores_upsampler(self):
        model = Backbone(small_cfg(use_upsampler=True))
        ref = model.frozen_checksum()
        model.params["upsampler.kernel"].data[0, 0, 0, 0] += 1.0
        assert model.frozen_checksum() == ref


class TestCheckpointRoundTrip:
    def test_byte_exact(self, tmp_path):
        model = Backbone(small_cfg(), seed=3)
        path = tmp_path / "model.ckpt"
        model.save(path)
        arrays = load_arrays(path)
        assert list(arrays) == list(model.params)
        for name, t in model.params.items():
            assert arrays[name].shape == t.shape, name
            assert arrays[name].tobytes() == t.data.tobytes(), name
