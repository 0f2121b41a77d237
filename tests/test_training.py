import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from promptseg import prompts, training
from promptseg.backbone import Backbone, BackboneConfig, tokenize
from promptseg.dataio import SyntheticTaskSpec, generate_dataset
from promptseg.prompts import KINDS, init_prompts, trainable_parameters
from promptseg.tensor import ShapeError, Tensor, zero_grads
from promptseg.training import (
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

    @pytest.mark.parametrize("lead", [(n,) for n in range(1, 11)] + [(2, 5)],
                             ids=lambda lead: "x".join(map(str, lead)))
    def test_a_stack_gives_the_bits_of_one_call_per_sample(self, lead):
        """One node over ``[..., S, S]`` against one call per sample summed in
        sample order by ``add`` nodes."""
        rng = np.random.default_rng([68, *lead])
        # per-sample losses from about 1 to about 1e4
        z = rng.normal(0.0, 1.0, (*lead, 5, 7)) * 10.0 ** rng.uniform(0, 4, (*lead, 1, 1))
        masks = (rng.random((*lead, 5, 7)) > 0.5).astype(float)
        cfg = LossConfig(0.7, 1.3, smooth=1e-3)
        results = []
        for stacked in (True, False):
            logits = Tensor(z, requires_grad=True)
            if stacked:
                loss = combined_loss(logits, masks, cfg)
            else:
                terms = [combined_loss(logits[i], masks[i], cfg) for i in np.ndindex(*lead)]
                loss = terms[0]
                for t in terms[1:]:
                    loss = loss + t
                per = np.array([t.item() for t in terms])
                # from 8 samples on, numpy's pairwise sum of these would differ
                assert len(per) < 8 or np.sum(per) != loss.item()
            loss = loss * (1.0 / 8)
            loss.backward()
            results.append((loss.data.tobytes(), logits.grad.tobytes()))
        assert results[0] == results[1]

    def test_dice_and_bce_give_one_value_per_sample(self):
        rng = np.random.default_rng(6)
        logits = Tensor(rng.normal(size=(2, 3, 4, 4)))
        masks = (rng.random((2, 3, 4, 4)) > 0.5).astype(float)
        dice, bce = dice_loss(logits, masks), bce_loss(logits, masks)
        assert dice.shape == bce.shape == (2, 3)
        for i in np.ndindex(2, 3):
            one = Tensor(logits.data[i])
            assert dice[i] == dice_loss(one, masks[i]) and bce[i] == bce_loss(one, masks[i])

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

    def test_parameters_sharing_a_name_keep_their_own_moments(self):
        def stepped(named):
            opt = AdamW(named, learning_rate=0.1, weight_decay=0.01)
            for grad in (3.0, -1.0):
                for _, t in named:
                    t.grad = np.asarray(grad * t.data)
                opt.step()
            return [t.data.item() for _, t in named]

        alone = [stepped([("p", Tensor(np.asarray(x), requires_grad=True))])[0]
                 for x in (1.0, 2.0)]
        shared = stepped([("p", Tensor(np.asarray(x), requires_grad=True)) for x in (1.0, 2.0)])
        assert shared == alone

    def test_a_0d_parameter_stays_an_array_that_a_view_writes_through(self):
        p = Tensor(np.asarray(1.0), requires_grad=True)
        p.grad = np.asarray(1.0)
        AdamW([("p", p)], learning_rate=0.1, weight_decay=0.01).step()
        assert type(p.data) is np.ndarray and p.data.shape == ()
        p.data.reshape(-1)[0] = 5.0
        assert p.data == 5.0

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
        ds = {**ds, "test": ds["train"][:3]}
        calls = []

        def counting(model, state, samples, memo=None):
            calls.append((len(samples), memo))
            return evaluate(model, state, samples, memo)

        monkeypatch.setattr(training, "evaluate", counting)
        art = train(model, state, ds, self._cfg(5))
        # one val pass for the step-5 record, then train and test for the
        # final dice, all three under one memo
        assert [n for n, _ in calls] == [len(ds["val"]), len(ds["train"]), len(ds["test"])]
        memo = calls[0][1]
        assert isinstance(memo, dict) and all(m is memo for _, m in calls)
        assert art.final_val_dice == art.metrics[-1]["dice"]

    def test_no_memo_crosses_an_optimizer_step(self, tiny_run, monkeypatch):
        model, ds = tiny_run
        state = init_prompts("coop", B=2, J=1, backbone=model, seed=4)
        memos = []

        def recording(model, state, samples, memo=None):
            memos.append(memo)
            return evaluate(model, state, samples, memo)

        monkeypatch.setattr(training, "evaluate", recording)
        train(model, state, ds, self._cfg(10))
        # val at steps 5 and 10, then train and test
        assert len(memos) == 4 and memos[0] is not memos[1]
        assert all(m is memos[1] for m in memos[1:])

    def test_non_finite_loss_stops_before_the_optimizer_step(self, tiny_run, tmp_path,
                                                             monkeypatch):
        model, ds = tiny_run
        state = init_prompts("vpt", B=2, J=1, backbone=model, seed=1)
        original = training.combined_loss
        calls = []

        def nan_at_step_two(logits, mask, cfg):
            calls.append(1)
            loss = original(logits, mask, cfg)
            # one loss per micro-batch, grad_accum = 2 per step; the 3rd is step 2's first
            return loss * float("nan") if len(calls) == 3 else loss

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

            def forward(self, images, tokens, state=None, rng=None, memo=None):
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

        def recording(image, tokens, state=None, rng=None, memo=None):
            assert all(ref() is None for ref in trained)
            logits = forward(image, tokens, state, rng, memo)
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
    ``batched`` runs one forward and one loss over the stack, else one forward
    and one loss per sample, summed by ``add`` nodes."""
    params = [t for _, t in trainable_parameters(state, model)]
    zero_grads(params)
    tokens = [tokenize(s.phrase, model.cfg.max_text_len) for s in batch]
    if batched:
        # as ``train`` scores a micro-batch: one loss node over the stack
        logits = model.forward(np.stack([s.image for s in batch]), tokens, state)
        loss = combined_loss(logits, np.stack([s.mask for s in batch]), LossConfig())
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

# phrases interleave, so grouping reorders; sorted A×3 B×2 C×2, so at stacks of
# 4 phrase B crosses the boundary between the two stacks
INTERLEAVED = "ABACBAC"
# interleaved too, and sorted A×14 B×19 C×3, so phrase B spans three stacks of
# 16 (and six of 4), and more phrase-stack pairs than phrases
SPANNING = "BABACBABABBABABABBACBABABABBABABBBAC"


def _split(pattern: str):
    """Samples whose phrases follow ``pattern``, one letter per phrase in
    sorted order, drawn without repeats from a pool of twenty samples for
    each of three phrases."""
    spec = SyntheticTaskSpec(n_classes=3, image_size=16,
                             samples_per_split={"train": 60}, seed=5, align=4)
    by_phrase: dict[str, list] = {}
    for s in generate_dataset(spec)["train"]:
        by_phrase.setdefault(s.phrase, []).append(s)
    queues = {letter: iter(by_phrase[phrase]) for letter, phrase in zip("ABC", sorted(by_phrase))}
    return [next(queues[letter]) for letter in pattern]


def _stacks(samples) -> list[list[str]]:
    """The phrases of each stack ``evaluate`` forwards, in order."""
    phrases, size = sorted(s.phrase for s in samples), training.EVAL_STACK
    return [phrases[i:i + size] for i in range(0, len(phrases), size)]


# every kind at the default stack size (under the kind's name) and at 1 and 4
STACK_CASES = [(kind, size) for kind in [*KINDS, None] for size in (16, 4, 1)]


@pytest.mark.parametrize("kind, size", STACK_CASES,
                         ids=[f"{kind}" if size == 16 else f"{kind}-stack{size}"
                              for kind, size in STACK_CASES])
def test_stacked_evaluate_matches_per_sample_loop(three_phrases, kind, size, monkeypatch):
    model, _ = three_phrases
    monkeypatch.setattr(training, "EVAL_STACK", size)
    samples = _split(SPANNING)
    assert max(sum(s.phrase in stack for stack in _stacks(samples)) for s in samples) >= 3
    state = None
    if kind is not None:
        state = _state(kind, model, 2, 7)
        train(model, state, {"train": samples},
              TrainRunConfig(steps=3, micro_batch=2, grad_accum=1, learning_rate=1e-2,
                             seed=1, eval_every=10))
    assert repr(evaluate(model, state, samples)) == repr(
        evaluate_per_sample(model, state, samples))


@pytest.mark.parametrize("kind", [*KINDS, None])
def test_evaluate_builds_the_prompts_once_and_encodes_each_phrase_once(three_phrases, kind,
                                                                      monkeypatch):
    """One prompt build per call, and one text-encoder pass per distinct
    phrase, except for cocoop: its prompts depend on the images, so it runs
    one pass per phrase of each stack."""
    model, _ = three_phrases
    samples = _split(SPANNING)
    state = None if kind is None else _state(kind, model, 2, 7)
    builds, encodes = _count_prompt_builds_and_text_passes(model, monkeypatch)
    evaluate(model, state, samples)
    assert len(builds) == 1
    per_stack = sum(len(set(stack)) for stack in _stacks(samples))
    assert len(encodes) == (per_stack if kind == "cocoop" else len(set(SPANNING)))
    assert per_stack > len(set(SPANNING))


def _count_prompt_builds_and_text_passes(model, monkeypatch):
    """Lists that each call of ``prompts.build_prompts`` and of the model's
    ``encode_text`` appends to."""
    build, encode, builds, encodes = prompts.build_prompts, model.encode_text, [], []

    def counted_build(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    def counted_encode(*args, **kwargs):
        encodes.append(args)
        return encode(*args, **kwargs)

    monkeypatch.setattr(prompts, "build_prompts", counted_build)
    monkeypatch.setattr(model, "encode_text", counted_encode)
    return builds, encodes


FINAL_CASES = [(kind, size) for kind in [*KINDS, None] for size in (16, 1)]


@pytest.mark.parametrize("kind, size", FINAL_CASES,
                         ids=[f"{kind}" if size == 16 else f"{kind}-stack{size}"
                              for kind, size in FINAL_CASES])
def test_final_evaluations_build_the_prompts_once_and_encode_each_phrase_once(
        three_phrases, kind, size, monkeypatch):
    """After the last optimizer step, the val, train and test evaluations of
    one ``train`` build the prompts once between them and encode each phrase
    once in total; cocoop runs one pass per phrase of each stack of each
    split.  Without prompts (``None``) there is nothing to train: the three
    splits go through ``evaluate`` with one dict, as ``train`` passes them."""
    model, _ = three_phrases
    monkeypatch.setattr(training, "EVAL_STACK", size)
    # 20 train samples, two stacks of 16; the test split lacks phrase C
    samples = _split(SPANNING[:20] + INTERLEAVED + "BBA")
    dataset = {"train": samples[:20], "val": samples[20:27], "test": samples[27:]}
    builds, encodes = _count_prompt_builds_and_text_passes(model, monkeypatch)
    if kind is None:
        memo: dict = {}
        for split in ("val", "train", "test"):
            evaluate(model, None, dataset[split], memo)
    else:
        step = AdamW.step

        def forgetting(opt):
            step(opt)
            builds.clear()
            encodes.clear()

        monkeypatch.setattr(AdamW, "step", forgetting)
        train(model, _state(kind, model, 2, 7), dataset,
              TrainRunConfig(steps=2, micro_batch=2, grad_accum=1, eval_every=10))
    assert len(builds) == 1
    per_stack = sum(len(set(stack)) for split in dataset.values() for stack in _stacks(split))
    assert len(encodes) == (per_stack if kind == "cocoop" else 3)


@pytest.mark.parametrize("kind", [*KINDS, None])
def test_evaluate_with_a_memo_another_split_filled_matches_a_fresh_call(three_phrases, kind):
    model, _ = three_phrases
    state = None if kind is None else _state(kind, model, 2, 7)
    samples = _split("AABAB" + INTERLEAVED)
    # phrase C is only in the second split
    first, second = samples[:5], samples[5:]
    memo: dict = {}
    evaluate(model, state, first, memo)
    built = memo["prompts"]
    assert repr(evaluate(model, state, second, memo)) == repr(evaluate(model, state, second))
    assert memo["prompts"] is built


@pytest.mark.parametrize("kind", [*KINDS, None])
def test_evaluate_builds_no_graph_without_a_trained_upsampler(kind, monkeypatch):
    """``evaluate`` forwards constant copies of the prompts, so with the
    upsampler frozen no tensor it builds keeps parents, and the prompts
    themselves still require grad afterwards."""
    model = Backbone(BackboneConfig(image_size=16, use_upsampler=False), seed=0)
    state = None if kind is None else _state(kind, model, 2, 7)
    nodes, init = [], Tensor.__init__

    def counting(self, data, requires_grad=False, _parents=()):
        if _parents:
            nodes.append(self)
        init(self, data, requires_grad, _parents)

    monkeypatch.setattr(Tensor, "__init__", counting)
    evaluate(model, state, _split(SPANNING))
    assert len(nodes) == 0
    assert state is None or all(t.requires_grad for t in state.params.values())


def test_per_sample_reference_takes_logits_beyond_the_range_of_exp(three_phrases, monkeypatch):
    """Logits pushed below -709, where exp(-z) overflows: the reference agrees
    with ``evaluate`` and raises no overflow warning."""
    model, _ = three_phrases
    samples = _split(INTERLEAVED)
    forward = model.forward
    monkeypatch.setattr(model, "forward", lambda *args, **kwargs: forward(*args, **kwargs) * -1e6)
    assert np.min(model.forward(samples[0].image, tokenize(samples[0].phrase, 16)).data) < -709
    assert repr(evaluate(model, None, samples)) == repr(evaluate_per_sample(model, None, samples))


# each pattern at the default stack size (under the pattern's name) and at 4
# and 1; only SPANNING crosses a stack boundary at the default
FORWARD_CASES = [(name, pattern, size)
                 for name, pattern in [("ABACBAC", INTERLEAVED), ("AABAAAACAA", "AABAAAACAA"),
                                       ("SPANNING", SPANNING)]
                 for size in (16, 4, 1)]


@pytest.mark.parametrize("pattern, size", [case[1:] for case in FORWARD_CASES],
                         ids=[name if size == 16 else f"{name}-stack{size}"
                              for name, _, size in FORWARD_CASES])
def test_evaluate_forwards_phrase_sorted_stacks_of_at_most_eval_stack(three_phrases, pattern,
                                                                      size, monkeypatch):
    monkeypatch.setattr(training, "EVAL_STACK", size)
    model, _ = three_phrases
    forward, stacks = model.forward, []

    def recording(image, tokens, state=None, rng=None, memo=None):
        stacks.append((np.shape(image), [np.asarray(t).tobytes() for t in tokens]))
        return forward(image, tokens, state, rng, memo)

    monkeypatch.setattr(model, "forward", recording)
    evaluate(model, None, _split(pattern))
    side = model.cfg.image_size
    for shape, _ in stacks:
        assert len(shape) == 4 and shape[1:] == (3, side, side)
    # full stacks of EVAL_STACK samples, then the rest in one
    assert [shape[0] for shape, _ in stacks] == [min(size, len(pattern) - i)
                                                for i in range(0, len(pattern), size)]
    # read in forward order, each phrase's samples are one run, so each phrase
    # lies in one contiguous run of stacks
    runs = [phrase for _, phrases in stacks for phrase in phrases]
    assert len(runs) == len(pattern)
    starts = [p for k, p in enumerate(runs) if k == 0 or runs[k - 1] != p]
    assert len(starts) == len(set(runs)) == len(set(pattern))
