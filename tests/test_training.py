import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from promptseg import training
from promptseg.backbone import Backbone, BackboneConfig, tokenize
from promptseg.dataio import SyntheticTaskSpec, generate_dataset
from promptseg.prompts import KINDS, init_prompts, trainable_parameters
from promptseg.tensor import ShapeError, Tensor, zero_grads
from promptseg.training import (
    EVAL_STACK,
    AdamW,
    FreezeViolationError,
    LossConfig,
    TrainRunConfig,
    bce_loss,
    combined_loss,
    dice_loss,
    dice_score,
    evaluate,
    train,
)

from helpers import combined_loss_chain, evaluate_per_sample, finite_difference, max_rel_error

BIG = 500.0  # saturates sigmoid exactly at 64-bit


@pytest.fixture(scope="module")
def tiny_run():
    model = Backbone(BackboneConfig(image_size=16), seed=0)
    spec = SyntheticTaskSpec(n_classes=2, image_size=16,
                             samples_per_split={"train": 8, "val": 4},
                             seed=3, align=4)
    return model, generate_dataset(spec)


class TestDiceLoss:
    def test_perfect_prediction(self):
        mask = np.array([[1.0, 0.0], [0.0, 1.0]])
        logits = Tensor(np.where(mask > 0, BIG, -BIG))
        assert dice_loss(logits, mask, smooth=1e-9).item() < 1e-9

    def test_hand_value(self):
        # p=[1,1,0,0], g=[1,0,0,0]: dice = 2*1/(2+1) = 2/3, loss 1/3
        logits = Tensor(np.array([BIG, BIG, -BIG, -BIG]))
        mask = np.array([1.0, 0.0, 0.0, 0.0])
        assert dice_loss(logits, mask, smooth=0.0).item() == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            val = dice_loss(Tensor(rng.normal(size=(4, 4))),
                            (rng.random((4, 4)) > 0.5).astype(float)).item()
            assert 0.0 <= val <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dice_loss(Tensor(np.zeros((2, 2))), np.zeros((3, 3)))


class TestBceLoss:
    def test_uniform_logit(self):
        mask = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert bce_loss(Tensor(np.zeros((2, 2))), mask).item() == pytest.approx(
            np.log(2.0), abs=1e-12
        )

    def test_saturation(self):
        mask = np.array([1.0, 0.0, 1.0])
        logits = Tensor(np.array([20.0, -20.0, 20.0]))
        assert bce_loss(logits, mask).item() < 1e-8


class TestCombinedLoss:
    def test_weighting_identity(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(4, 4)))
        mask = (rng.random((4, 4)) > 0.5).astype(float)
        cfg = LossConfig(lambda_dice=1.0, lambda_ce=0.2, smooth=1.0)
        expected = (cfg.lambda_dice * dice_loss(logits, mask, cfg.smooth).item()
                    + cfg.lambda_ce * bce_loss(logits, mask).item())
        assert combined_loss(logits, mask, cfg).item() == pytest.approx(
            expected, abs=1e-12
        )

    def test_default_lambda_arithmetic(self):
        cfg = LossConfig()
        assert cfg.lambda_dice * 0.5 + cfg.lambda_ce * 0.3 == pytest.approx(
            0.56, abs=1e-12
        )

    def test_zero_ce_reduces_to_dice(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.normal(size=(4, 4)))
        mask = (rng.random((4, 4)) > 0.5).astype(float)
        cfg = LossConfig(lambda_ce=0.0)
        assert combined_loss(logits, mask, cfg).item() == pytest.approx(
            dice_loss(logits, mask, cfg.smooth).item(), abs=1e-12
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            logits = Tensor(rng.normal(size=(3, 3)) * 5)
            mask = (rng.random((3, 3)) > 0.5).astype(float)
            assert combined_loss(logits, mask, LossConfig()).item() >= 0.0

    @pytest.mark.parametrize("lambdas", [(1.0, 0.0), (0.0, 1.0), (1.0, 0.2)],
                             ids=["dice", "bce", "defaults"])
    def test_gradient_matches_finite_differences(self, lambdas):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        mask = (rng.random((3, 3)) > 0.5).astype(float)
        cfg = LossConfig(*lambdas)

        combined_loss(logits, mask, cfg).backward()
        (fd,) = finite_difference(lambda: combined_loss(logits, mask, cfg).item(), [logits])
        assert max_rel_error(fd, logits.grad) < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1),
           shape=hst.one_of(hst.tuples(hst.integers(1, 16)),
                            hst.tuples(hst.integers(4, 32), hst.integers(4, 32))),
           scale=hst.floats(0.1, 800.0),
           lambdas=hst.sampled_from([(1.0, 0.2), (1.0, 0.0), (0.0, 1.0), (0.7, 1.3)]),
           smooth=hst.sampled_from([1.0, 0.0, 1e-3]))
    def test_value_and_gradient_bytes_match_the_op_chain(self, seed, shape, scale,
                                                         lambdas, smooth):
        rng = np.random.default_rng(seed)
        z = rng.normal(0.0, scale, shape)
        mask = (rng.random(shape) > 0.5).astype(float)
        cfg = LossConfig(*lambdas, smooth=smooth)
        results = []
        # the chain overflows in exp beyond ±709; with smooth 0, an empty mask
        # and probabilities that are all 0.0 both sides divide by zero
        with np.errstate(all="ignore"):
            for loss_fn in (combined_loss, combined_loss_chain):
                logits = Tensor(z, requires_grad=True)
                # the upstream gradient of a loss in an accumulated micro-batch
                loss = loss_fn(logits, mask, cfg) * (1.0 / 8)
                loss.backward()
                results.append((loss.data.tobytes(), logits.grad.tobytes()))
        assert results[0] == results[1]

    def test_is_one_graph_node(self, monkeypatch):
        logits = Tensor(np.zeros((4, 4)), requires_grad=True)
        built = []
        init = Tensor.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        loss = combined_loss(logits, np.eye(4), LossConfig())
        assert built == [loss]
        assert loss._parents == (logits,)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_saturated_logits_do_not_overflow(self):
        mask = np.array([[1.0, 0.0], [0.0, 1.0]])
        logits = Tensor(np.array([[800.0, -800.0], [800.0, -800.0]]), requires_grad=True)
        loss = combined_loss(logits, mask, LossConfig())
        loss.backward()
        assert np.isfinite(loss.item()) and np.all(np.isfinite(logits.grad))


class TestDiceScore:
    def test_identical(self):
        m = np.array([[1, 0], [1, 1]], dtype=bool)
        assert dice_score(m, m) == 1.0

    def test_disjoint(self):
        assert dice_score(np.array([1, 0, 0]), np.array([0, 1, 1])) == 0.0

    def test_half_overlap(self):
        pred = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=bool)
        gt = np.array([0, 0, 1, 1, 1, 1, 0, 0], dtype=bool)
        assert dice_score(pred, gt) == 0.5

    def test_empty_vs_empty(self):
        z = np.zeros((4, 4), dtype=bool)
        assert dice_score(z, z) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dice_score(np.zeros(3), np.zeros(4))


class TestAdamW:
    def test_zero_grad_zero_decay_is_noop(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = AdamW([("p", p)], learning_rate=0.1, weight_decay=0.0)
        opt.step()
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_hand_evaluated_first_step(self):
        p = Tensor(np.asarray(1.0), requires_grad=True)
        p.grad = np.asarray(1.0)
        opt = AdamW([("p", p)], learning_rate=0.1, weight_decay=0.0)
        opt.step()
        assert p.data == pytest.approx(1.0 - 0.1 * (1.0 / (1.0 + 1e-8)), abs=1e-12)

    def test_decay_closed_form(self):
        lr, wd, n = 0.01, 0.5, 7
        p = Tensor(np.asarray(2.0), requires_grad=True)
        opt = AdamW([("p", p)], learning_rate=lr, weight_decay=wd)
        for _ in range(n):
            p.grad = np.asarray(0.0)
            opt.step()
        assert p.data == pytest.approx(2.0 * (1.0 - lr * wd) ** n, rel=1e-12)

    def test_missing_moment_buffer(self):
        p = Tensor(np.asarray(1.0), requires_grad=True)
        opt = AdamW([("p", p)], learning_rate=0.1)
        opt.named_params.append(("q", Tensor(np.asarray(1.0), requires_grad=True)))
        with pytest.raises(KeyError):
            opt.step()

    def test_zero_grad_clears(self):
        p = Tensor(np.asarray(1.0), requires_grad=True)
        p.grad = np.asarray(3.0)
        opt = AdamW([("p", p)], learning_rate=0.1)
        opt.zero_grad()
        assert p.grad is None


class TestTrainLoop:
    def _cfg(self, steps, seed=0, **kw):
        return TrainRunConfig(steps=steps, micro_batch=2, grad_accum=2,
                              learning_rate=1e-3, weight_decay=1e-4, seed=seed,
                              eval_every=5, **kw)

    def test_zero_steps_checkpoint_equals_init(self, tiny_run):
        model, ds = tiny_run
        state = init_prompts("vpt", B=2, J=1, backbone=model, seed=1)
        before = {n: t.data.copy() for n, t in state.params.items()}
        art = train(model, state, ds, self._cfg(0))
        for name, arr in before.items():
            assert np.array_equal(art.checkpoint_arrays[f"prompt.{name}"], arr)

    def test_determinism(self):
        spec = SyntheticTaskSpec(n_classes=2, image_size=16,
                                 samples_per_split={"train": 8, "val": 4},
                                 seed=3, align=4)
        ds = generate_dataset(spec)

        def one_run():
            model = Backbone(BackboneConfig(image_size=16), seed=0)
            state = init_prompts("vpt", B=2, J=1, backbone=model, seed=1)
            return train(model, state, ds, self._cfg(6, seed=9))

        a, b = one_run(), one_run()
        assert a.metrics == b.metrics
        for name, arr in a.checkpoint_arrays.items():
            assert arr.tobytes() == b.checkpoint_arrays[name].tobytes()

    def test_freeze_checksum_invariant(self, tiny_run):
        model, ds = tiny_run
        state = init_prompts("maple", B=2, J=1, backbone=model, seed=2)
        before = model.frozen_checksum()
        train(model, state, ds, self._cfg(4))
        assert model.frozen_checksum() == before

    def test_mutation_detected(self, tiny_run):
        model, ds = tiny_run
        state = init_prompts("vpt", B=2, J=1, backbone=model, seed=1)
        original = model.params["text.proj"].data.copy()

        def corrupt(step, m, s):
            if step == 2:
                m.params["text.proj"].data = m.params["text.proj"].data + 1e-9

        with pytest.raises(FreezeViolationError):
            train(model, state, ds, self._cfg(3), on_step=corrupt)
        model.params["text.proj"].data = original

    def test_metrics_log_schema(self, tiny_run, tmp_path):
        model, ds = tiny_run
        state = init_prompts("coop", B=2, J=1, backbone=model, seed=4)
        art = train(model, state, ds, self._cfg(5), out_dir=tmp_path)
        assert len(art.metrics) == 5
        for rec in art.metrics:
            assert set(rec) == {"step", "loss", "dice", "lr"}
        assert art.metrics[-1]["dice"] is not None
        assert (tmp_path / "prompts.ckpt").exists()
        assert (tmp_path / "metrics.jsonl").exists()

    def test_val_evaluated_once_at_the_last_step(self, tiny_run, monkeypatch):
        model, ds = tiny_run
        state = init_prompts("coop", B=2, J=1, backbone=model, seed=4)
        calls = []

        def counting(model, state, samples):
            calls.append(len(samples))
            return evaluate(model, state, samples)

        monkeypatch.setattr(training, "evaluate", counting)
        art = train(model, state, ds, self._cfg(5))
        # one val pass for the step-5 record, one train pass for final_train_dice
        assert calls == [len(ds["val"]), len(ds["train"])]
        assert art.final_val_dice == art.metrics[-1]["dice"]

    def test_non_finite_loss_stops_before_the_optimizer_step(self, tiny_run, tmp_path,
                                                             monkeypatch):
        model, ds = tiny_run
        state = init_prompts("vpt", B=2, J=1, backbone=model, seed=1)
        original = training.combined_loss
        calls = []

        def nan_at_step_two(logits, mask, cfg):
            calls.append(1)
            loss = original(logits, mask, cfg)
            # micro_batch * grad_accum = 4 losses per step; the 5th is step 2's first
            return loss * float("nan") if len(calls) == 5 else loss

        after_step_one = {}

        def snapshot(step, m, s):
            after_step_one.update((n, t.data.copy()) for n, t in s.params.items())

        monkeypatch.setattr(training, "combined_loss", nan_at_step_two)
        with pytest.raises(training.NonFiniteLossError, match="at step 2"):
            train(model, state, ds, self._cfg(4), out_dir=tmp_path, on_step=snapshot)
        assert after_step_one
        for name, arr in after_step_one.items():
            assert state.params[name].data.tobytes() == arr.tobytes(), name
        assert not (tmp_path / "prompts.ckpt").exists()

    def test_loss_decreases_smoke(self, tiny_run):
        model, ds = tiny_run
        state = init_prompts("vpt", B=4, J=2, backbone=model, seed=5)
        art = train(model, state, ds, self._cfg(60))
        first = np.mean([m["loss"] for m in art.metrics[:10]])
        last = np.mean([m["loss"] for m in art.metrics[-10:]])
        assert last < first

    def test_evaluate_empty_returns_nan(self, tiny_run):
        model, _ = tiny_run
        assert np.isnan(evaluate(model, None, []))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_evaluate_saturated_logits_do_not_overflow(self):
        class Saturated:
            cfg = BackboneConfig()

            def forward(self, images, tokens, state=None, rng=None):
                return Tensor(np.where(images[:, 0] > 0, 800.0, -800.0))

        masks = [np.eye(4), np.ones((4, 4)), np.zeros((4, 4))]
        samples = [SimpleNamespace(phrase="a cat", mask=m, image=np.stack([m - 0.5] * 3))
                   for m in masks]
        assert evaluate(Saturated(), None, samples) == 1.0

    def test_micro_batch_graph_is_freed_before_the_next_forward(self, tiny_run,
                                                                monkeypatch):
        model, ds = tiny_run
        state = init_prompts("maple", B=2, J=1, backbone=model, seed=2)
        forward, trained = model.forward, []

        def recording(image, tokens, state=None, rng=None):
            assert all(ref() is None for ref in trained)
            logits = forward(image, tokens, state, rng)
            if rng is not None:
                # a Tensor takes no weak reference; its buffer lives as long as it does
                trained.append(weakref.ref(logits.data))
            return logits

        monkeypatch.setattr(model, "forward", recording)
        train(model, state, ds, self._cfg(2))
        assert len(trained) == 4


# -- one graph per micro-batch against the per-sample loop ---------------------


@pytest.fixture(scope="module")
def three_phrases():
    model = Backbone(BackboneConfig(image_size=16), seed=0)
    spec = SyntheticTaskSpec(n_classes=3, image_size=16,
                             samples_per_split={"train": 8}, seed=5, align=4)
    return model, generate_dataset(spec)["train"]


def _state(kind, model, depth, seed):
    state = init_prompts(kind, B=2, J=1 if kind == "coop" else depth, backbone=model,
                         seed=seed)
    if kind == "cocoop":
        # a non-zero meta-net output layer, so the image conditioning matters
        state.params["meta.w2"].data = np.random.default_rng(seed).normal(
            0.0, 0.1, state.params["meta.w2"].shape)
    return state


def _gradients(model, state, batch, batched: bool):
    """Loss and trainable gradients of one micro-batch as ``train`` scales it;
    ``batched`` runs one forward over the stack, else one per sample."""
    params = [t for _, t in trainable_parameters(state, model)]
    zero_grads(params)
    tokens = [tokenize(s.phrase, model.cfg.max_text_len) for s in batch]
    if batched:
        logits = model.forward(np.stack([s.image for s in batch]), tokens, state)
        per_sample = [logits[i] for i in range(len(batch))]
    else:
        per_sample = [model.forward(s.image, t, state) for s, t in zip(batch, tokens)]
    loss = combined_loss(per_sample[0], batch[0].mask, LossConfig())
    for z, s in zip(per_sample[1:], batch[1:]):
        loss = loss + combined_loss(z, s.mask, LossConfig())
    loss = loss * (1.0 / len(batch))
    loss.backward()
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    zero_grads(params)
    return loss.item(), grads


@settings(max_examples=30, deadline=None)
@given(kind=hst.sampled_from(KINDS), depth=hst.integers(1, 2), seed=hst.integers(0, 99),
       picks=hst.lists(hst.integers(0, 7), min_size=1, max_size=4))
def test_batched_micro_batch_matches_per_sample_loop(three_phrases, kind, depth, seed,
                                                     picks):
    model, samples = three_phrases
    state = _state(kind, model, depth, seed)
    batch = [samples[i] for i in picks]   # three phrases over eight samples: repeats
    loss_loop, loop = _gradients(model, state, batch, batched=False)
    loss_stack, stack = _gradients(model, state, batch, batched=True)
    assert loss_stack == loss_loop
    # scaled by the largest entry over all parameters: shared-attention's
    # coupler key bias has an analytically zero gradient, pure round-off
    scale = max(float(np.max(np.abs(g))) for g in loop)
    err = max(float(np.max(np.abs(a - b))) for a, b in zip(stack, loop))
    assert err <= 1e-12 * scale


@pytest.mark.parametrize("kind", KINDS)
def test_frozen_weights_marked_trainable_change_no_trainable_gradient(three_phrases, kind):
    model, samples = three_phrases
    state = _state(kind, model, 2, 3)
    batch = [samples[0], samples[1], samples[0], samples[5]]
    _, skipped = _gradients(model, state, batch, batched=True)
    frozen = [model.params[n] for n in model.frozen_param_names()]
    try:
        for t in frozen:
            t.requires_grad = True
        _, computed = _gradients(model, state, batch, batched=True)
    finally:
        for t in frozen:
            t.requires_grad = False
            t.grad = None
    for a, b in zip(skipped, computed):
        assert a.tobytes() == b.tobytes()


# -- stacked evaluation against the per-sample loop ----------------------------

# phrases interleave, so grouping reorders, and every phrase ends in a partial stack
INTERLEAVED = "ABACBAC"


def _split(pattern: str):
    """Samples whose phrases follow ``pattern``, one letter per phrase, drawn
    without repeats from a pool of eight samples for each of three phrases."""
    spec = SyntheticTaskSpec(n_classes=3, image_size=16,
                             samples_per_split={"train": 24}, seed=5, align=4)
    by_phrase: dict[str, list] = {}
    for s in generate_dataset(spec)["train"]:
        by_phrase.setdefault(s.phrase, []).append(s)
    queues = {letter: iter(group) for letter, group in zip("ABC", by_phrase.values())}
    return [next(queues[letter]) for letter in pattern]


@pytest.mark.parametrize("kind", [*KINDS, None])
def test_stacked_evaluate_matches_per_sample_loop(three_phrases, kind):
    model, _ = three_phrases
    samples = _split(INTERLEAVED)
    state = None
    if kind is not None:
        state = _state(kind, model, 2, 7)
        train(model, state, {"train": samples},
              TrainRunConfig(steps=3, micro_batch=2, grad_accum=1, learning_rate=1e-2,
                             seed=1, eval_every=10))
    assert repr(evaluate(model, state, samples)) == repr(
        evaluate_per_sample(model, state, samples))


@pytest.mark.parametrize("pattern", [INTERLEAVED, "AABAAAACAA"])
def test_evaluate_forwards_one_phrase_stacks_of_at_most_eval_stack(three_phrases, pattern,
                                                                   monkeypatch):
    model, _ = three_phrases
    forward, stacks = model.forward, []

    def recording(image, tokens, state=None, rng=None):
        stacks.append((np.shape(image), {np.asarray(t).tobytes() for t in tokens}))
        return forward(image, tokens, state, rng)

    monkeypatch.setattr(model, "forward", recording)
    evaluate(model, None, _split(pattern))
    size = model.cfg.image_size
    for shape, phrases in stacks:
        assert len(shape) == 4 and shape[1:] == (3, size, size) and shape[0] <= EVAL_STACK
        assert len(phrases) == 1
    assert len(stacks) == sum(-(-pattern.count(c) // EVAL_STACK) for c in set(pattern))
