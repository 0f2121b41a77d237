import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from promptseg.backbone import BLOCK_PARAMS, init_block_params, transformer_block
from promptseg.tensor import (
    ConfigError,
    GradientError,
    ShapeError,
    Tensor,
    add,
    concat,
    conv2d,
    layer_norm,
    linear,
    mul,
    relu,
    reshape,
    take,
    transpose,
)
from promptseg.training import LossConfig, combined_loss

from helpers import (
    attention,
    attention_chain,
    concat_chain,
    conv2d_reference,
    finite_difference,
    layer_norm_reference,
    linear_chain,
    matmul,
    max_rel_error,
    reduce_sum,
    softmax,
    transformer_block_chain,
)


class TestMatmul:
    """``linear`` without a bias: the plain matrix product."""

    def test_identity(self):
        eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(linear(eye, b).data, b.data)

    def test_dot_product(self):
        out = linear(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 4\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

        def forward():
            return reduce_sum(linear(a, b)).item()

        loss = reduce_sum(linear(a, b))
        loss.backward()
        fd_a, fd_b = finite_difference(forward, [a, b])
        assert max_rel_error(fd_a, a.grad) < 1e-6
        assert max_rel_error(fd_b, b.grad) < 1e-6


class TestLinear:
    @pytest.mark.parametrize("bias_shape", [None, (5,), (3, 5)],
                             ids=["no-bias", "1d-bias", "2d-bias"])
    def test_gradient_matches_finite_differences(self, bias_shape):
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        params = [x, w]
        if bias_shape is not None:
            params.append(Tensor(rng.normal(size=bias_shape), requires_grad=True))
        weights = rng.normal(size=(2, 3, 5))

        def run():
            return reduce_sum(linear(*params) * weights)

        run().backward()
        for t, fd in zip(params, finite_difference(lambda: run().item(), params)):
            assert max_rel_error(fd, t.grad) < 1e-6

    def test_width_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(5, 6\)"):
            linear(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((5, 6))), Tensor(np.zeros(6)))


class TestLayerNorm:
    def test_constant_vector_maps_to_zero(self):
        out = layer_norm(Tensor([5.0, 5.0, 5.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0)

    def test_two_point_vector(self):
        out = layer_norm(Tensor([1.0, 3.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                         eps=1e-14)
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-6)

    def test_empty_axis_rejected(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        gamma = Tensor(rng.normal(size=5), requires_grad=True)
        beta = Tensor(rng.normal(size=5), requires_grad=True)
        weights = rng.normal(size=(3, 5))

        def forward():
            return reduce_sum(layer_norm(x, gamma, beta) * weights).item()

        loss = reduce_sum(layer_norm(x, gamma, beta) * weights)
        loss.backward()
        for t, fd in zip([x, gamma, beta], finite_difference(forward, [x, gamma, beta])):
            assert max_rel_error(fd, t.grad) < 1e-6


# A central difference across a ReLU's kink does not approximate its gradient.
# Under this seed every ReLU input in the block's finite-difference grids below
# lies at least 2e-3 from zero; under seed 30 one lay 2e-4 from it, within
# reach of a 1e-5 step of a layer-norm gain.
KINK_FREE_SEED = 47


def _block_params(rng, d=8, ff=16, trainable=True):
    """One block's parameters under the prefix ``b``: random weights, and gains,
    shifts and biases drawn around their initial values."""
    params = {}
    init_block_params(params, "b", d, ff, rng)
    for t in params.values():
        t.data = rng.normal(size=t.shape) * 0.5 + (t.data if t.data.ndim == 1 else 0.0)
        t.requires_grad = trainable
    return params


def _live(params, x):
    """``x`` and the weights that require grad, save ``bk``: the key bias
    shifts all of a query's scores alike, so softmax cancels it and its
    gradient is zero up to rounding, far below what finite differences
    resolve."""
    return [x] + [t for n, t in params.items() if t.requires_grad and n != "b.bk"]


class TestAttention:
    """The transformer block's attention, seen from outside the block."""

    def test_single_token_reduces_to_value_path(self):
        rng = np.random.default_rng(2)
        d = 6
        params = _block_params(rng, d, ff=5, trainable=False)
        p = lambda n: params[f"b.{n}"].data

        def ln(t, g, b):
            return g * (t - t.mean()) / np.sqrt(t.var() + 1e-5) + b

        x = rng.normal(size=(1, d))
        out = transformer_block(params, "b", Tensor(x), 2)
        h = x + (ln(x, p("ln1.g"), p("ln1.b")) @ p("wv") + p("bv")) @ p("wo") + p("bo")
        f1 = ln(h, p("ln2.g"), p("ln2.b")) @ p("ff.w1") + p("ff.b1")
        expected = h + np.maximum(f1, 0.0) @ p("ff.w2") + p("ff.b2")
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        s = softmax(Tensor(rng.normal(size=(4, 7))), axis=-1)
        assert np.allclose(s.data.sum(axis=-1), 1.0)

    def test_head_divisibility_enforced(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ConfigError):
            transformer_block(_block_params(rng, 6), "b", Tensor(np.zeros((2, 6))), 4)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        params = _block_params(rng)
        x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        weights = rng.normal(size=(3, 8))
        checked = _live(params, x)

        def run():
            return reduce_sum(transformer_block(params, "b", x, 2) * weights)

        run().backward()
        for t, fd in zip(checked, finite_difference(lambda: run().item(), checked)):
            assert max_rel_error(fd, t.grad) < 1e-5


def _qkv(rng, lead, s=3, d=8):
    return [Tensor(rng.normal(size=(*lead, s, d)), requires_grad=True) for _ in range(3)]


def _dropout_mask(rng, lead, heads, s=3, p=0.3):
    return (rng.random((*lead, heads, s, s)) >= p) / (1.0 - p)


def _block_loss(params, x, heads, weights, seed=None, layernorm_first=True):
    """The weighted sum of the block's output; a ``seed`` draws a 0.3 dropout
    mask from a fresh rng of that seed on every call."""
    rng = None if seed is None else np.random.default_rng(seed)
    y = transformer_block(params, "b", x, heads, layernorm_first=layernorm_first,
                          attn_dropout=0.3, rng=rng)
    return reduce_sum(y * weights)


class TestFusedAttention:
    """Finite differences through the whole transformer block, pre-norm."""

    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)], ids=["lead0", "lead1", "lead2"])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("dropout", [False, True], ids=["no-mask", "mask"])
    def test_gradient_matches_finite_differences(self, lead, heads, dropout):
        rng = np.random.default_rng(KINK_FREE_SEED)
        params = _block_params(rng)
        x = Tensor(rng.normal(size=(*lead, 3, 8)), requires_grad=True)
        weights = rng.normal(size=(*lead, 3, 8))
        seed = 7 if dropout else None
        checked = _live(params, x)

        def run():
            return _block_loss(params, x, heads, weights, seed)

        run().backward()
        for t, fd in zip(checked, finite_difference(lambda: run().item(), checked)):
            assert max_rel_error(fd, t.grad) < 1e-5

    @pytest.mark.parametrize("frozen", [0, 1, 2], ids=["q", "k", "v"])
    def test_frozen_operand_gets_no_gradient(self, frozen):
        rng = np.random.default_rng(31)
        params = _block_params(rng)
        names = [f"b.{w}{'qkv'[frozen]}" for w in "wb"]
        for name in names:
            params[name].requires_grad = False
        x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
        weights = rng.normal(size=(2, 3, 8))
        live = _live(params, x)

        def run():
            return _block_loss(params, x, 2, weights, seed=8)

        run().backward()
        assert all(params[name].grad is None for name in names)
        for t, fd in zip(live, finite_difference(lambda: run().item(), live)):
            assert max_rel_error(fd, t.grad) < 1e-5

    def test_heads_must_divide_width(self):
        rng = np.random.default_rng(32)
        with pytest.raises(ConfigError, match="3 heads do not divide width 8"):
            transformer_block(_block_params(rng), "b", Tensor(rng.normal(size=(3, 8))), 3)


class TestTransformerBlock:
    """``transformer_block`` is one graph node with the bits of the chain of
    ``transformer_block_chain``, in its value and in every gradient."""

    @settings(max_examples=120, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1),
           lead=hst.lists(hst.integers(1, 3), max_size=2),
           s=hst.integers(1, 5), heads=hst.integers(1, 4), dh=hst.integers(1, 3),
           ff=hst.integers(1, 9), layernorm_first=hst.booleans(),
           dropout=hst.sampled_from([0.0, 0.3]),
           weights=hst.sampled_from(["frozen", "trainable", "mixed"]),
           x_grad=hst.booleans())
    def test_value_and_gradients_match_the_chain_bit_for_bit(
            self, seed, lead, s, heads, dh, ff, layernorm_first, dropout, weights, x_grad):
        rng = np.random.default_rng(seed)
        d = heads * dh
        arrays = {n: t.data for n, t in _block_params(rng, d, ff).items()}
        trainable = {n: weights == "trainable" or (weights == "mixed" and rng.random() < 0.5)
                     for n in arrays}
        x_grad = x_grad or not any(trainable.values())
        x0 = rng.normal(size=(*lead, s, d))
        losses = [rng.normal(size=(*lead, s, d)) for _ in range(2)]

        def run(block):
            params = {n: Tensor(a.copy(), requires_grad=trainable[n]) for n, a in arrays.items()}
            x = Tensor(x0.copy(), requires_grad=x_grad)
            values = []
            # two backward passes accumulate into the leaf x and the weights,
            # as micro-batches do into a coupler's unified prompt
            for k, w in enumerate(losses):
                y = block(params, "b", x, heads, layernorm_first=layernorm_first,
                          attn_dropout=dropout, rng=np.random.default_rng(seed + k))
                values.append(y.data.tobytes())
                reduce_sum(y * w).backward()
            grads = [t.grad for t in (x, *params.values())]
            return values, [None if g is None else g.tobytes() for g in grads]

        fused, chain = run(transformer_block), run(transformer_block_chain)
        assert fused == chain
        assert fused[1][0] is not None or not x_grad

    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)], ids=["lead0", "lead1", "lead2"])
    @pytest.mark.parametrize("dropout", [False, True], ids=["no-mask", "mask"])
    @pytest.mark.parametrize("layernorm_first", [True, False], ids=["pre-norm", "post-norm"])
    def test_gradient_matches_finite_differences(self, lead, dropout, layernorm_first):
        rng = np.random.default_rng(KINK_FREE_SEED)
        params = _block_params(rng)
        x = Tensor(rng.normal(size=(*lead, 3, 8)), requires_grad=True)
        weights = rng.normal(size=(*lead, 3, 8))
        seed = 9 if dropout else None
        checked = _live(params, x)

        def run():
            return _block_loss(params, x, 2, weights, seed, layernorm_first)

        run().backward()
        for t, fd in zip(checked, finite_difference(lambda: run().item(), checked)):
            assert max_rel_error(fd, t.grad) < 1e-4
        assert np.abs(params["b.bk"].grad).max() < 1e-12

    def test_frozen_weights_give_the_input_its_gradient_only(self):
        rng = np.random.default_rng(38)
        params = _block_params(rng, trainable=False)
        x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        reduce_sum(transformer_block(params, "b", x, 2)).backward()
        assert x.grad is not None
        assert all(t.grad is None for t in params.values())

    def test_frozen_weight_blocks_keep_no_weight_only_arrays(self):
        """The backward of a block with every weight frozen keeps only what dx
        reads: not the inputs of the q, k, v and feed-forward projections, the
        head-merged attention output or the ReLU output, which weight
        gradients alone read (about 299 KiB kept per block with them)."""
        rng = np.random.default_rng(39)
        params: dict = {}
        for i in range(4):
            init_block_params(params, f"b{i}", 32, 64, rng)
        x = Tensor(rng.normal(size=(4, 21, 32)), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = x
            for i in range(4):
                y = transformer_block(params, f"b{i}", y, 4)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert y.requires_grad
        assert kept / 4 <= 200 * 1024


class TestFusedMatchesChain:
    """The fused ops give the bits of the node chains they stand for, in the
    values and in every gradient."""

    @staticmethod
    def _assert_same_bits(arrays, fused_loss, chain_loss):
        fused = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        chain = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        loss_fused, loss_chain = fused_loss(*fused), chain_loss(*chain)
        loss_fused.backward()
        loss_chain.backward()
        assert loss_fused.data.tobytes() == loss_chain.data.tobytes()
        for f, c in zip(fused, chain):
            assert f.grad.tobytes() == c.grad.tobytes()

    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)], ids=["lead0", "lead1", "lead2"])
    @pytest.mark.parametrize("dropout", [False, True], ids=["no-mask", "mask"])
    def test_attention_block(self, lead, dropout):
        """The attention node of ``transformer_block_chain`` gives the bits of
        elementary ops, so the block does too."""
        rng = np.random.default_rng(33)
        s, d, heads = 5, 12, 2  # 1/sqrt(6) is inexact: a reordered scaling shows
        arrays = [rng.normal(size=(*lead, s, d))] + [
            rng.normal(size=shape) for _ in range(4) for shape in ((d, d), (d,))]
        mask = _dropout_mask(rng, lead, heads, s) if dropout else None
        weights = rng.normal(size=(*lead, s, d))

        def block(lin, att):
            def loss(x, wq, bq, wk, bk, wv, bv, wo, bo):
                out = att(lin(x, wq, bq), lin(x, wk, bk), lin(x, wv, bv), heads, mask)
                return reduce_sum(lin(out, wo, bo) * weights)
            return loss

        self._assert_same_bits(arrays, block(linear, attention),
                               block(linear_chain, attention_chain))

    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)], ids=["lead0", "lead1", "lead2"])
    @pytest.mark.parametrize("bias_shape", [None, (4,), (3, 4)],
                             ids=["no-bias", "1d-bias", "2d-bias"])
    def test_linear(self, lead, bias_shape):
        rng = np.random.default_rng(35)
        arrays = [rng.normal(size=(*lead, 3, 5)), rng.normal(size=(5, 4))]
        if bias_shape is not None:
            arrays.append(rng.normal(size=bias_shape))
        weights = rng.normal(size=(*lead, 3, 4))
        chain = matmul if bias_shape is None else linear_chain
        self._assert_same_bits(arrays, lambda *t: reduce_sum(linear(*t) * weights),
                               lambda *t: reduce_sum(chain(*t) * weights))

    @pytest.mark.parametrize("shapes", [
        [(2, 4), (3, 5, 4)],
        [(3, 5, 4), (2, 4), (3, 1, 4)],
        [(3, 2, 4), (3, 5, 4)],
        [(2, 4), (3, 2, 4), (2, 3, 5, 4)],
    ], ids=["lacks-lead", "own-lead-between", "no-repeat", "lacks-two-axes"])
    def test_concat_repeats_operands_as_broadcast_to_would(self, shapes):
        rng = np.random.default_rng(36)
        arrays = [rng.normal(size=s) for s in shapes]
        widest = max(shapes, key=len)
        weights = rng.normal(size=(*widest[:-2], sum(s[-2] for s in shapes), widest[-1]))
        self._assert_same_bits(arrays,
                               lambda *t: reduce_sum(concat(t, axis=-2) * weights),
                               lambda *t: reduce_sum(concat_chain(t, axis=-2) * weights))

    def test_layer_norm_matches_numpy_mean_and_var(self):
        rng = np.random.default_rng(34)
        arrays = [rng.normal(size=(2, 5, 7)), rng.normal(size=7), rng.normal(size=7)]
        weights = rng.normal(size=(2, 5, 7))
        self._assert_same_bits(arrays,
                               lambda *t: reduce_sum(layer_norm(*t) * weights),
                               lambda *t: reduce_sum(layer_norm_reference(*t) * weights))


class TestAccumulate:
    def test_first_gradient_of_negative_zero_is_stored_as_positive_zero(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        reduce_sum(mul(x, -0.0)).backward()
        assert np.array_equal(x.grad, [0.0, 0.0])
        assert not np.signbit(x.grad).any()

    def test_first_gradient_is_copied_not_aliased(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        g = np.array([1.0, -2.0, 3.0])
        x._accumulate(g)
        g[:] = 7.0
        assert x.grad.tolist() == [1.0, -2.0, 3.0]


class TestConv2d:
    def test_unit_kernel_is_identity(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 4, 4)))
        k = np.zeros((2, 2, 1, 1))
        k[0, 0], k[1, 1] = 1.0, 1.0
        out = conv2d(x, Tensor(k), padding=0)
        assert np.array_equal(out.data, x.data)

    def test_ones_kernel_on_one_hot(self):
        x = np.zeros((1, 5, 5))
        x[0, 2, 2] = 1.0
        out = conv2d(Tensor(x), Tensor(np.ones((1, 1, 3, 3))), padding=1)
        expected = np.zeros((5, 5))
        expected[1:4, 1:4] = 1.0
        assert np.array_equal(out.data[0], expected)

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))), padding=0)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 5, 5)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        weights = rng.normal(size=(3, 5, 5))

        def run():
            return reduce_sum(conv2d(x, k, bias=b, padding=1) * weights)

        loss = run()
        loss.backward()
        params = [x, k, b]
        for t, fd in zip(params, finite_difference(lambda: run().item(), params)):
            assert max_rel_error(fd, t.grad) < 1e-5

    @settings(max_examples=200, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), lead=hst.lists(hst.integers(1, 3), max_size=2),
           h=hst.integers(1, 7), w=hst.integers(1, 7), kh=hst.sampled_from([3, 5]),
           kw=hst.sampled_from([3, 5]), padding=hst.integers(0, 2), bias=hst.booleans(),
           grads=hst.sampled_from(["x", "kernel", "all"]))
    def test_one_channel_matches_the_reference_bit_for_bit(self, seed, lead, h, w, kh, kw,
                                                           padding, bias, grads):
        """Value and gradients equal ``conv2d_reference``'s bytes, with -0.0 in
        the input, the kernel and the incoming gradient, over two backward
        passes that accumulate into the leaves.  Kernel and output sides are
        at least 3 and 2, as for the upsampler's 5 by 5 kernel over a whole
        image: with a side of 1, the reference's im2col can stay a strided
        view of the padded input, whose GEMM rounds differently."""
        oh, ow = h + 2 * padding - kh + 1, w + 2 * padding - kw + 1
        assume(oh >= 2 and ow >= 2)
        rng = np.random.default_rng(seed)

        def signed_zeros(a):
            a[rng.random(a.shape) < 0.2] = -0.0
            a[rng.random(a.shape) < 0.1] = 0.0
            return a

        x0 = signed_zeros(rng.normal(size=(*lead, 1, h, w)))
        k0 = signed_zeros(rng.normal(size=(1, 1, kh, kw)))
        b0 = rng.normal(size=1)
        losses = [signed_zeros(rng.normal(size=(*lead, 1, oh, ow))) for _ in range(2)]

        def run(op):
            x = Tensor(x0.copy(), requires_grad=grads != "kernel")
            k = Tensor(k0.copy(), requires_grad=grads != "x")
            b = Tensor(b0.copy(), requires_grad=grads == "all") if bias else None
            values = []
            for weights in losses:
                y = op(x, k, bias=b, padding=padding)
                values.append(y.data.tobytes())
                reduce_sum(y * weights).backward()
            return values, [None if t is None or t.grad is None else t.grad.tobytes()
                            for t in (x, k, b)]

        assert run(conv2d) == run(conv2d_reference)

    @pytest.mark.parametrize("lead", [(), (1,), (5,), (2, 3)],
                             ids=["lead0", "lead1", "lead5", "lead2x3"])
    def test_a_stack_matches_per_image_calls_bit_for_bit(self, lead):
        """A stack's value and its x, kernel and bias gradients are those of one
        call per image, with the kernel and bias gradients summed in image
        order, for several input and output channels."""
        rng = np.random.default_rng(8)
        x0 = rng.normal(size=(*lead, 2, 6, 7))
        k0, b0 = rng.normal(size=(3, 2, 3, 5)), rng.normal(size=3)
        weights = rng.normal(size=(*lead, 3, 6, 5))

        def run(x_data, w):
            x, k, b = (Tensor(a.copy(), requires_grad=True) for a in (x_data, k0, b0))
            y = conv2d(x, k, bias=b, padding=1)
            reduce_sum(y * w).backward()
            return y.data, x.grad, k.grad, b.grad

        stacked = run(x0, weights)
        images = [run(xi, wi) for xi, wi in zip(x0.reshape(-1, 2, 6, 7),
                                                weights.reshape(-1, 3, 6, 5))]
        y, gx, gk, gb = (list(parts) for parts in zip(*images))
        assert stacked[0].tobytes() == np.stack(y).reshape(stacked[0].shape).tobytes()
        assert stacked[1].tobytes() == np.stack(gx).reshape(x0.shape).tobytes()
        assert stacked[2].tobytes() == sum(gk[1:], gk[0]).tobytes()
        assert stacked[3].tobytes() == sum(gb[1:], gb[0]).tobytes()

    def test_a_stack_holds_one_image_of_columns_at_a_time(self):
        """A stack of 16 32-px images under a 5 by 5 kernel that requires grad:
        the forward's peak stays below two images' columns plus the input and
        the output, and beyond its output the node keeps less than one
        image's columns (it keeps the padded input, not the columns)."""
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(16, 1, 32, 32)))
        k = Tensor(rng.normal(size=(1, 1, 5, 5)), requires_grad=True)
        columns = 25 * 32 * 32 * 8  # one image's [25, 32 * 32] float64 columns
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = conv2d(x, k, padding=2)
            kept, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert y.requires_grad
        assert peak < 2 * columns + x.data.nbytes + y.data.nbytes
        assert kept - y.data.nbytes < columns


class TestBackward:
    def test_square_derivative(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x).backward()
        assert x.grad == pytest.approx(6.0)

    def test_frozen_tensor_receives_no_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        frozen = Tensor(2.0, requires_grad=False)
        (x * frozen).backward()
        assert frozen.grad is None
        assert x.grad == pytest.approx(2.0)

    def test_non_scalar_root_rejected(self):
        with pytest.raises(GradientError):
            Tensor(np.zeros(3), requires_grad=True).backward()

    def test_frozen_data_bit_identical_after_backward(self):
        rng = np.random.default_rng(10)
        frozen = Tensor(rng.normal(size=(3, 3)))
        before = frozen.data.copy()
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        reduce_sum(linear(x, frozen)).backward()
        assert frozen.data.tobytes() == before.tobytes()

    def test_shared_node_accumulates_once_per_use(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x + x * 3.0
        y.backward()
        assert x.grad == pytest.approx(7.0)

    def test_determinism_bit_identical(self):
        def build(seed):
            rng = np.random.default_rng(seed)
            a = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            b = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            loss = reduce_sum(softmax(linear(a, b)) * rng.normal(size=(4, 4)))
            loss.backward()
            return loss.item(), a.grad.copy(), b.grad.copy()

        l1, ga1, gb1 = build(42)
        l2, ga2, gb2 = build(42)
        assert l1 == l2
        assert np.array_equal(ga1, ga2)
        assert np.array_equal(gb1, gb2)


class TestConcatTake:
    def test_concat_roundtrip_gradient(self):
        a = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        b = Tensor(np.arange(4.0, 10.0).reshape(3, 2), requires_grad=True)
        out = concat([a, b], axis=0)
        reduce_sum(out[1:4] * 2.0).backward()
        assert np.array_equal(a.grad, [[0.0, 0.0], [2.0, 2.0]])
        assert np.array_equal(b.grad, [[2.0, 2.0], [2.0, 2.0], [0.0, 0.0]])


def _block_node(x, *ws):
    params = {f"b.{n}": w for n, w in zip(BLOCK_PARAMS, ws)}
    return transformer_block(params, "b", x, 2, attn_dropout=0.3, rng=np.random.default_rng(37))


# every op that builds a graph node: the op over its tensor operands, and their shapes
NODE_BUILDERS = {
    "add": (add, [(2, 3), (3,)]),
    "mul": (mul, [(2, 3), (2, 1)]),
    "relu": (relu, [(2, 3)]),
    "reshape": (lambda a: reshape(a, (3, 2)), [(2, 3)]),
    "transpose": (lambda a: transpose(a, (1, 0)), [(2, 3)]),
    "take": (lambda a: take(a, np.array([1, 0, 1])), [(2, 3)]),
    "concat": (lambda *ts: concat(ts, axis=-1), [(2, 3), (2, 1)]),
    "concat-repeat": (lambda *ts: concat(ts, axis=-2), [(2, 3), (4, 5, 3)]),
    "linear": (linear, [(2, 3), (3, 4), (4,)]),
    "layer_norm": (layer_norm, [(2, 3), (3,), (3,)]),
    "conv2d": (lambda x, k, b: conv2d(x, k, b, padding=1), [(2, 1, 4, 4), (2, 1, 3, 3), (2,)]),
    "transformer_block": (_block_node, [(2, 3, 8)] + [
        t.shape for t in _block_params(np.random.default_rng(0)).values()]),
    "combined_loss": (lambda z: combined_loss(z, np.eye(4), LossConfig()), [(4, 4)]),
}


class TestNodeRule:
    """One rule for every op: over constants it returns a constant, with no
    parents and no closure; with an operand that requires grad, a node that
    keeps every operand."""

    @pytest.mark.parametrize("name", NODE_BUILDERS)
    def test_constant_operands_give_a_constant(self, name):
        op, shapes = NODE_BUILDERS[name]
        rng = np.random.default_rng(37)
        y = op(*(Tensor(rng.normal(size=s)) for s in shapes))
        assert not y.requires_grad
        assert y._parents == () and y._backward is None

    @pytest.mark.parametrize("name", NODE_BUILDERS)
    def test_one_operand_that_requires_grad_keeps_them_all(self, name):
        op, shapes = NODE_BUILDERS[name]
        rng = np.random.default_rng(37)
        operands = [Tensor(rng.normal(size=s)) for s in shapes]
        operands[-1].requires_grad = True
        y = op(*operands)
        assert y.requires_grad and y._backward is not None
        assert y._parents == tuple(operands)

    @pytest.mark.parametrize("op", [add, mul])
    def test_a_scalar_operand_is_a_constant_parent(self, op):
        x = Tensor(np.arange(3.0), requires_grad=True)
        y = op(x, 2.0)
        assert y._parents[0] is x
        assert not y._parents[1].requires_grad and y._parents[1].data == 2.0
        assert op(Tensor(np.arange(3.0)), 2.0)._parents == ()
