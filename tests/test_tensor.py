import numpy as np
import pytest

from singvc import tensor as T
from singvc.errors import ConfigError, ContractError, ShapeError
from singvc.tensor import Tensor, backward


def fd_grad(func, array, h=1e-5):
    """Central-difference oracle: gradient of scalar func() w.r.t. array."""
    out = np.zeros_like(array)
    flat = array.reshape(-1)
    grad = out.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = func()
        flat[i] = keep - h
        lo = func()
        flat[i] = keep
        grad[i] = (hi - lo) / (2 * h)
    return out


def max_rel_err(ad, fd):
    return float((np.abs(ad - fd) / np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-3)).max())


class TestMatmul:
    def test_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(T.identity(2), m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_hand_computed(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        # weight the output so every gradient entry is distinct
        w = rng.normal(size=(3, 2))

        def loss():
            return float((a.data @ b.data * w).sum())

        out = T.tsum(T.mul(T.matmul(a, b), Tensor(w)))
        backward(out)
        assert max_rel_err(a.grad, fd_grad(loss, a.data)) < 1e-6
        assert max_rel_err(b.grad, fd_grad(loss, b.data)) < 1e-6


class TestConv1d:
    def test_k1_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 5)))
        w = Tensor(np.eye(3)[:, :, None])
        out = T.conv1d(x, w, T.zeros(3))
        np.testing.assert_allclose(out.data, x.data)

    def test_k3_hand_convolution(self):
        x = Tensor([[0.0, 1.0, 0.0]])
        w = Tensor([[[1.0, 1.0, 1.0]]])
        out = T.conv1d(x, w, T.zeros(1))
        np.testing.assert_array_equal(out.data, [[1.0, 1.0, 1.0]])

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            T.conv1d(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 1, 2))), T.zeros(1))

    @pytest.mark.parametrize("dilation", [1, 2])
    def test_gradients_match_finite_differences(self, dilation):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        probe = rng.normal(size=(3, 5))

        def loss():
            pad = dilation
            xp = np.pad(x.data, ((0, 0), (pad, pad)))
            acc = np.zeros((3, 5))
            for k in range(3):
                acc += w.data[:, :, k] @ xp[:, k * dilation : k * dilation + 5]
            return float(((acc + b.data[:, None]) * probe).sum())

        out = T.tsum(T.mul(T.conv1d(x, w, b, dilation), Tensor(probe)))
        backward(out)
        for t in (x, w, b):
            assert max_rel_err(t.grad, fd_grad(loss, t.data)) < 1e-6


class TestElementwise:
    def test_swish_at_zero(self):
        assert T.swish(Tensor([0.0])).data[0] == 0.0

    def test_gate_closed_at_zero(self):
        z = Tensor([0.0])
        assert T.mul(T.tanh(z), T.sigmoid(z)).data[0] == 0.0

    def test_relu_subgradient_convention(self):
        x = Tensor([-1.0, 0.0, 1.0], requires_grad=True)
        backward(T.tsum(T.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_non_broadcastable_rejected(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
        with pytest.raises(ShapeError):  # a [C] vector is not stretched over [C, L]
            T.add(Tensor(np.zeros((3, 5))), Tensor(np.zeros(3)))
        with pytest.raises(ShapeError):
            T.mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))


class TestEmbedding:
    def test_zero_row(self):
        table = Tensor(np.vstack([np.zeros(4), np.ones(4)]))
        np.testing.assert_array_equal(T.embedding_lookup(table, [0]).data, np.zeros((1, 4)))

    def test_default_table_shape(self):
        table = Tensor(np.zeros((256, 256)))
        assert T.embedding_lookup(table, [0, 1, 2]).shape == (3, 256)

    def test_repeated_index_gradient_accumulates(self):
        table = Tensor(np.zeros((4, 2)), requires_grad=True)
        out = T.embedding_lookup(table, [1, 1, 3])
        backward(T.tsum(out))
        np.testing.assert_array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])

    def test_out_of_range_names_position(self):
        table = Tensor(np.zeros((4, 2)))
        with pytest.raises(IndexError, match="position 2"):
            T.embedding_lookup(table, [0, 1, 7])


class TestBackward:
    def test_square_sum(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        backward(T.tsum(T.mul(w, w)))
        np.testing.assert_array_equal(w.grad, [2.0, 4.0])

    def test_composite_fc_swish_sum(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 4)), requires_grad=True)

        def loss():
            z = x.data @ w.data + b.data
            return float((z / (1 + np.exp(-z))).sum())

        backward(T.tsum(T.swish(T.add(T.matmul(x, w), b))))
        for t in (x, w, b):
            assert max_rel_err(t.grad, fd_grad(loss, t.data)) < 1e-5

    def test_backward_twice_is_contract_error(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.tsum(T.mul(w, w))
        backward(loss)
        with pytest.raises(ContractError):
            backward(loss)

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            backward(T.mul(w, w))

    def test_backward_without_tape_rejected(self):
        with pytest.raises(ContractError):
            backward(Tensor(1.0, requires_grad=True))

    def test_determinism(self):
        data = np.random.default_rng(9).normal(size=(4, 4))

        def run():
            x = Tensor(data.copy(), requires_grad=True)
            backward(T.tmean(T.mul(T.tanh(x), T.sigmoid(x))))
            return x.grad

        np.testing.assert_array_equal(run(), run())

    def test_slice_rows_gradient_scatter(self):
        u = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        backward(T.tsum(T.slice_rows(u, 1, 3)))
        expected = np.zeros((4, 3))
        expected[1:3] = 1.0
        np.testing.assert_array_equal(u.grad, expected)

    def test_transpose_gradient(self):
        u = Tensor(np.ones((2, 5)), requires_grad=True)
        probe = Tensor(np.arange(10.0).reshape(5, 2))
        backward(T.tsum(T.mul(T.transpose(u), probe)))
        np.testing.assert_array_equal(u.grad, probe.data.T)
