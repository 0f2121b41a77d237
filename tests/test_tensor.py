import numpy as np
import pytest

from promptseg.tensor import (
    ConfigError,
    GradientError,
    ShapeError,
    Tensor,
    attention,
    concat,
    conv2d,
    layer_norm,
    linear,
    matmul,
    mul,
)
from promptseg.backbone import multi_head_attention

from helpers import (
    attention_chain,
    finite_difference,
    layer_norm_reference,
    linear_chain,
    max_rel_error,
    reduce_sum,
    softmax,
)


class TestMatmul:
    def test_identity(self):
        eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(matmul(eye, b).data, b.data)

    def test_dot_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 4\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

        def forward():
            return reduce_sum(matmul(a, b)).item()

        loss = reduce_sum(matmul(a, b))
        loss.backward()
        fd_a, fd_b = finite_difference(forward, [a, b])
        assert max_rel_error(fd_a, a.grad) < 1e-6
        assert max_rel_error(fd_b, b.grad) < 1e-6


class TestLinear:
    @pytest.mark.parametrize("bias_shape", [(5,), (3, 5)], ids=["1d-bias", "2d-bias"])
    def test_gradient_matches_finite_differences(self, bias_shape):
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=bias_shape), requires_grad=True)
        weights = rng.normal(size=(2, 3, 5))

        def run():
            return reduce_sum(linear(x, w, b) * weights)

        run().backward()
        params = [x, w, b]
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


class TestAttention:
    def _params(self, d, rng):
        ts = [Tensor(rng.normal(size=(d, d)), requires_grad=True) for _ in range(4)]
        bs = [Tensor(rng.normal(size=d) * 0.1, requires_grad=True) for _ in range(4)]
        return ts, bs

    def test_single_token_reduces_to_value_path(self):
        rng = np.random.default_rng(2)
        d = 6
        (wq, wk, wv, wo), (bq, bk, bv, bo) = self._params(d, rng)
        x = Tensor(rng.normal(size=(1, d)))
        out = multi_head_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads=2)
        expected = (x.data @ wv.data + bv.data) @ wo.data + bo.data
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        s = softmax(Tensor(rng.normal(size=(4, 7))), axis=-1)
        assert np.allclose(s.data.sum(axis=-1), 1.0)

    def test_head_divisibility_enforced(self):
        rng = np.random.default_rng(4)
        (wq, wk, wv, wo), (bq, bk, bv, bo) = self._params(6, rng)
        with pytest.raises(ConfigError):
            multi_head_attention(Tensor(np.zeros((2, 6))), wq, bq, wk, bk, wv, bv,
                                 wo, bo, heads=4)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        s, d = 3, 8
        (wq, wk, wv, wo), (bq, bk, bv, bo) = self._params(d, rng)
        x = Tensor(rng.normal(size=(s, d)), requires_grad=True)
        weights = rng.normal(size=(s, d))
        params = [x, wq, wk, wv, wo]

        def run():
            return reduce_sum(
                multi_head_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads=2)
                * weights
            )

        loss = run()
        loss.backward()
        for t, fd in zip(params, finite_difference(lambda: run().item(), params)):
            assert max_rel_error(fd, t.grad) < 1e-5


def _qkv(rng, lead, s=3, d=8):
    return [Tensor(rng.normal(size=(*lead, s, d)), requires_grad=True) for _ in range(3)]


def _dropout_mask(rng, lead, heads, s=3, p=0.3):
    return (rng.random((*lead, heads, s, s)) >= p) / (1.0 - p)


class TestFusedAttention:
    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)], ids=["lead0", "lead1", "lead2"])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("dropout", [False, True], ids=["no-mask", "mask"])
    def test_gradient_matches_finite_differences(self, lead, heads, dropout):
        rng = np.random.default_rng(30)
        q, k, v = _qkv(rng, lead)
        mask = _dropout_mask(rng, lead, heads) if dropout else None
        weights = rng.normal(size=(*lead, 3, 8))

        def run():
            return reduce_sum(attention(q, k, v, heads, mask) * weights)

        run().backward()
        for t, fd in zip((q, k, v), finite_difference(lambda: run().item(), [q, k, v])):
            assert max_rel_error(fd, t.grad) < 1e-5

    @pytest.mark.parametrize("frozen", [0, 1, 2], ids=["q", "k", "v"])
    def test_frozen_operand_gets_no_gradient(self, frozen):
        rng = np.random.default_rng(31)
        qkv = _qkv(rng, (2,))
        qkv[frozen].requires_grad = False
        mask = _dropout_mask(rng, (2,), 2)
        weights = rng.normal(size=(2, 3, 8))

        def run():
            return reduce_sum(attention(*qkv, 2, mask) * weights)

        run().backward()
        assert qkv[frozen].grad is None
        live = [t for t in qkv if t.requires_grad]
        for t, fd in zip(live, finite_difference(lambda: run().item(), live)):
            assert max_rel_error(fd, t.grad) < 1e-5

    def test_heads_must_divide_width(self):
        q, k, v = _qkv(np.random.default_rng(32), ())
        with pytest.raises(ConfigError, match="3 heads do not divide width 8"):
            attention(q, k, v, 3, None)


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
        reduce_sum(matmul(x, frozen)).backward()
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
            loss = reduce_sum(softmax(matmul(a, b)) * rng.normal(size=(4, 4)))
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
