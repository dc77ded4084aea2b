import tracemalloc

import numpy as np
import pytest

from singvc import tensor as T
from singvc.errors import ContractError, ShapeError
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

    @pytest.mark.parametrize("k, n", [(128, 512), (512, 512), (512, 32), (3, 1)])
    def test_weight_gradient_matches_the_k1_gemm_byte_for_byte(self, k, n):
        rng = np.random.default_rng(k * 1000 + n)
        a = Tensor(rng.normal(size=(1, k)))
        b = Tensor(rng.normal(size=(k, n)), requires_grad=True)
        probe = rng.normal(size=(1, n))
        backward(T.tsum(T.mul(T.matmul(a, b), Tensor(probe))))
        assert b.grad.tobytes() == (a.data.T @ probe).tobytes()

    @pytest.mark.parametrize("k, n", [(512, 512), (513, 64), (3, T.OUTER_BLOCK + 7)])
    def test_later_rank1_contributions_add_whole_products_bits(self, k, n):
        # three one-row inputs share a weight: the second and third outer
        # products are added a block of rows at a time
        rng = np.random.default_rng(k + n)
        b = Tensor(rng.normal(size=(k, n)), requires_grad=True)
        rows = [rng.normal(size=(1, k)) for _ in range(3)]
        probes = [rng.normal(size=(1, n)) for _ in range(3)]
        terms = [T.tsum(T.mul(T.matmul(Tensor(r), b), Tensor(p))) for r, p in zip(rows, probes)]
        backward(T.add(T.add(terms[0], terms[1]), terms[2]))
        expected = None
        for r, p in zip(rows, probes):  # the order backward reaches them in
            outer = r.T @ p
            expected = outer if expected is None else expected + outer
        assert b.grad.tobytes() == expected.tobytes()


def conv1d_reference(w, x, b, dilation, g):
    """The per-tap loop on a [C_out, C_in, K] weight: output and the x, w, b
    gradients for upstream gradient g.  ``conv1d`` is its dilation-1 case."""
    c_out, _, k = w.shape
    length = x.shape[1]
    pad = (k - 1) * dilation // 2
    xp = np.pad(x, ((0, 0), (pad, pad))) if pad else x
    out = np.zeros((c_out, length))
    for tap in range(k):
        out += w[:, :, tap] @ xp[:, tap * dilation : tap * dilation + length]
    gw = np.empty_like(w)
    for tap in range(k):
        gw[:, :, tap] = g @ xp[:, tap * dilation : tap * dilation + length].T
    gxp = np.zeros_like(xp)
    for tap in range(k):
        gxp[:, tap * dilation : tap * dilation + length] += w[:, :, tap].T @ g
    return out + b[:, None], gxp[:, pad : pad + length] if pad else gxp, gw, g.sum(axis=1)


class TestConv1d:
    def test_k1_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 5)))
        w = Tensor(np.eye(3)[None, :, :])
        out = T.conv1d(x, w, T.zeros(3))
        np.testing.assert_allclose(out.data, x.data)

    def test_k3_hand_convolution(self):
        x = Tensor([[0.0, 1.0, 0.0]])
        w = Tensor([[[1.0]], [[1.0]], [[1.0]]])
        out = T.conv1d(x, w, T.zeros(1))
        np.testing.assert_array_equal(out.data, [[1.0, 1.0, 1.0]])

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            T.conv1d(Tensor(np.zeros((1, 4))), Tensor(np.zeros((2, 1, 1))), T.zeros(1))

    @pytest.mark.parametrize("dilation", [1])  # of the reference loss; conv1d's only one
    def test_gradients_match_finite_differences(self, dilation):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        w = Tensor(np.ascontiguousarray(rng.normal(size=(3, 2, 3)).transpose(2, 0, 1)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        probe = rng.normal(size=(3, 5))

        def loss():
            pad = dilation
            xp = np.pad(x.data, ((0, 0), (pad, pad)))
            acc = np.zeros((3, 5))
            for k in range(3):
                acc += w.data[k] @ xp[:, k * dilation : k * dilation + 5]
            return float(((acc + b.data[:, None]) * probe).sum())

        out = T.tsum(T.mul(T.conv1d(x, w, b), Tensor(probe)))
        backward(out)
        for t in (x, w, b):
            assert max_rel_err(t.grad, fd_grad(loss, t.data)) < 1e-6

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("dilation", [1])  # of the reference; conv1d's only one
    @pytest.mark.parametrize("c_out, c_in, length", [(3, 2, 7), (48, 40, 37)])
    def test_tap_major_matches_reference_bit_for_bit(self, k, dilation, c_out, c_in, length):
        rng = np.random.default_rng(13)
        w_ref = rng.normal(size=(c_out, c_in, k))
        x = Tensor(rng.normal(size=(c_in, length)), requires_grad=True)
        w = Tensor(np.ascontiguousarray(w_ref.transpose(2, 0, 1)), requires_grad=True)
        b = Tensor(rng.normal(size=c_out), requires_grad=True)
        probe = rng.normal(size=(c_out, length))
        out_ref, gx_ref, gw_ref, gb_ref = conv1d_reference(w_ref, x.data, b.data, dilation, probe)

        out = T.conv1d(x, w, b)
        backward(T.tsum(T.mul(out, Tensor(probe))))
        np.testing.assert_array_equal(out.data, out_ref)
        np.testing.assert_array_equal(x.grad, gx_ref)
        np.testing.assert_array_equal(w.grad, gw_ref.transpose(2, 0, 1))
        np.testing.assert_array_equal(b.grad, gb_ref)


class TestSegments:
    """Slab ops against the same ops on each segment alone, byte for byte."""

    LENGTHS = (9, 16, 1, 12)  # widths BLAS rounds differently when joined

    def segments(self, a):
        starts = np.cumsum((0,) + self.LENGTHS)
        return [a[..., s:e] for s, e in zip(starts, starts[1:])]

    @pytest.mark.parametrize("k", [1, 3])
    def test_conv1d_is_each_segment_alone(self, k):
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(6, sum(self.LENGTHS))), requires_grad=True)
        w = Tensor(rng.normal(size=(k, 5, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        probe = rng.normal(size=(5, sum(self.LENGTHS)))
        out = T.conv1d(x, w, b, self.LENGTHS)
        backward(T.tsum(T.mul(out, Tensor(probe))))

        gw = gb = None
        for xs, ps, os_, gxs in zip(self.segments(x.data), self.segments(probe), self.segments(out.data),
                                    self.segments(x.grad)):
            xi = Tensor(xs.copy(), requires_grad=True)
            wi, bi = Tensor(w.data, requires_grad=True), Tensor(b.data, requires_grad=True)
            oi = T.conv1d(xi, wi, bi)
            backward(T.tsum(T.mul(oi, Tensor(ps.copy()))))
            assert np.ascontiguousarray(os_).tobytes() == oi.data.tobytes()
            assert np.ascontiguousarray(gxs).tobytes() == xi.grad.tobytes()
            gw = wi.grad if gw is None else gw + wi.grad
            gb = bi.grad if gb is None else gb + bi.grad
        assert w.grad.tobytes() == gw.tobytes() and b.grad.tobytes() == gb.tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("lengths", [None, LENGTHS])
    def test_conv1d_addend_gives_the_bits_of_add(self, k, lengths):
        rng = np.random.default_rng(21)
        width = sum(self.LENGTHS)
        arrays = [rng.normal(size=(6, width)), rng.normal(size=(k, 5, 6)), rng.normal(size=5),
                  rng.normal(size=(5, width))]  # x, weight, bias, addend
        probe = Tensor(rng.normal(size=(5, width)))
        runs = []
        for fused in (True, False):
            x, w, b, addend = (Tensor(a.copy(), requires_grad=True) for a in arrays)
            if fused:
                out = T.conv1d(x, w, b, lengths, addend)
            else:
                out = T.add(T.conv1d(x, w, b, lengths), addend)
            backward(T.tsum(T.mul(out, probe)))
            runs.append([out.data, x.grad, w.grad, b.grad, addend.grad])
        for fused, plain in zip(*runs):
            assert fused.tobytes() == plain.tobytes()
        with pytest.raises(ShapeError, match="addend"):
            T.conv1d(x, w, b, lengths, Tensor(np.zeros((5, width - 1))))

    def test_add_per_segment_adds_each_row_to_its_columns(self):
        rng = np.random.default_rng(18)
        x = Tensor(rng.normal(size=(3, sum(self.LENGTHS))), requires_grad=True)
        rows = [Tensor(rng.normal(size=(1, 3)), requires_grad=True) for _ in self.LENGTHS]
        probe = rng.normal(size=x.shape)
        out = T.add_per_segment(x, rows, self.LENGTHS)
        backward(T.tsum(T.mul(out, Tensor(probe))))
        for r, xs, os_, ps in zip(rows, self.segments(x.data), self.segments(out.data), self.segments(probe)):
            np.testing.assert_array_equal(os_, xs + r.data.T)
            assert r.grad.tobytes() == ps.sum(axis=1, keepdims=True).T.tobytes()
        np.testing.assert_array_equal(x.grad, probe)

    def test_segment_mse_is_the_mean_of_each_segments_mse(self):
        rng = np.random.default_rng(19)
        a = Tensor(rng.normal(size=(sum(self.LENGTHS), 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, sum(self.LENGTHS))).T, requires_grad=True)  # a transposed slab
        loss = T.segment_mse(a, b, self.LENGTHS)
        backward(loss)
        terms, refs = [], []
        for s, e in zip(np.cumsum((0,) + self.LENGTHS), np.cumsum(self.LENGTHS)):
            ai, bi = Tensor(a.data[s:e].copy(), requires_grad=True), Tensor(b.data[s:e].T.copy().T, requires_grad=True)
            terms.append(T.mse(ai, bi))
            refs.append((ai, bi, s, e))
        total = terms[0]
        for term in terms[1:]:
            total = T.add(total, term)
        total = T.scale(total, 1.0 / len(terms))
        backward(total)
        assert loss.data.tobytes() == total.data.tobytes()
        for ai, bi, s, e in refs:
            assert a.grad[s:e].tobytes() == ai.grad.tobytes()
            assert np.ascontiguousarray(b.grad[s:e]).tobytes() == np.ascontiguousarray(bi.grad).tobytes()

    def test_concat_rows_splits_the_gradient(self):
        rng = np.random.default_rng(20)
        parts = [Tensor(rng.normal(size=(n, 3)), requires_grad=True) for n in self.LENGTHS]
        probe = rng.normal(size=(sum(self.LENGTHS), 3))
        out = T.concat_rows(parts)
        backward(T.tsum(T.mul(out, Tensor(probe))))
        np.testing.assert_array_equal(out.data, np.concatenate([p.data for p in parts]))
        np.testing.assert_array_equal(np.concatenate([p.grad for p in parts]), probe)
        assert T.concat_rows(parts[:1]) is parts[0]

    def test_lengths_must_tile_the_slab(self):
        x = Tensor(np.zeros((2, 5)))
        with pytest.raises(ShapeError, match="do not tile"):
            T.conv1d(x, Tensor(np.zeros((1, 2, 2))), T.zeros(2), (2, 2))
        with pytest.raises(ShapeError):
            T.add_per_segment(x, [T.zeros((1, 2))], (2, 3))


def sigmoid_reference(x):
    """Two-branch sigmoid through boolean masks."""
    pos = x >= 0
    out = np.empty_like(x)
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_matches_masked_reference_byte_for_byte(self):
        tiny = np.finfo(np.float64).tiny
        edges = [0.0, np.inf, 709.8, 745.2, 5e-324, tiny / 2, tiny, 1e-300, 36.8, 37.0]
        rng = np.random.default_rng(17)
        normals = [rng.normal(size=20_000) * s for s in (1e-8, 1.0, 10.0, 100.0, 1e3)]
        x = np.concatenate([np.array(edges), -np.array(edges)] + normals)
        got = T._sigmoid(x)
        assert got.tobytes() == sigmoid_reference(x).tobytes()

    def test_numerator_has_the_bits_of_the_where_select(self):
        # the numerator max(x >= 0, e) against the np.where select it replaced
        def where_sigmoid(x):
            e = np.exp(-np.abs(x))
            return np.where(x >= 0, 1.0, e) / (1.0 + e)

        edges = [0.0, 800.0, 1e-320, np.inf]
        x = np.concatenate([edges, np.negative(edges), [np.nan],
                            np.random.default_rng(5).normal(size=10_000)])
        assert T._sigmoid(x).tobytes() == where_sigmoid(x).tobytes()

    def test_nan_stays_nan(self):
        x = np.array([np.nan, -np.nan, 1.0])
        got = T._sigmoid(x)
        assert np.isnan(got[:2]).all() and got[2] == sigmoid_reference(x)[2]


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
        with pytest.raises(ShapeError):  # only a [1, D] row is added to every row
            T.add(Tensor(np.zeros((3, 5))), Tensor(np.zeros((3, 1))))


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
        with pytest.raises(ShapeError, match="position 2"):
            T.embedding_lookup(table, [0, 1, 7])


class TestAccumulate:
    def test_transposed_input_grad_is_c_contiguous(self):
        # x's first contribution is the transpose of a C-ordered matmul grad
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w = Tensor(np.ones((2, 4)))
        backward(T.tsum(T.matmul(T.transpose(x), w)))
        assert x.grad.flags.c_contiguous
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 4.0))

    def test_same_input_twice_sums(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        backward(T.tsum(T.scale(T.add(x, x), 1.5)))
        np.testing.assert_array_equal(x.grad, [3.0, 3.0, 3.0])

    def test_grad_does_not_alias_upstream(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        y = T.transpose(x)
        backward(T.tsum(y))
        y.grad[...] = 7.0
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    @pytest.mark.parametrize("graph", ["add_twice", "segment_mse_twice", "matmul_transposed", "transposed_slab"])
    def test_adopted_gradients_never_alias(self, graph):
        # one gradient reaches two inputs, or one input twice: no two
        # gradients may share a buffer, and each is C-ordered
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        y = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        xf = Tensor(np.asfortranarray(rng.normal(size=(4, 6))), requires_grad=True)  # an F-ordered leaf
        held = [x, y, xf]
        if graph == "add_twice":
            held += [T.add(x, x), T.add(xf, xf)]
            held.append(T.mul(T.add(held[-2], held[-1]), y))
        elif graph == "segment_mse_twice":
            held += [T.segment_mse(x, x, (1, 3)), T.segment_mse(xf, y, (3, 1))]
            held.append(T.add(held[-2], T.scale(held[-1], 2.0)))
        elif graph == "matmul_transposed":
            held += [T.transpose(x), T.transpose(xf)]
            held += [T.matmul(x, held[-2]), T.matmul(xf, held[-1]), T.matmul(y, held[-2])]
            held.append(T.add(T.add(held[-3], held[-2]), held[-1]))
        else:
            w = Tensor(rng.normal(size=(3, 5, 6)), requires_grad=True)
            b = Tensor(rng.normal(size=5), requires_grad=True)
            slab = T.transpose(T.add(x, xf))  # [6, 4]: segments of 2 and 2 frames
            held += [w, b, slab, T.conv1d(slab, w, b, (2, 2)), T.conv1d(T.transpose(y), w, b, (1, 3))]
            held.append(T.add(held[-2], held[-1]))
        loss = T.tsum(held[-1])
        held.append(loss)
        backward(loss)
        grads = [t for t in held if t.grad is not None]
        assert {id(t) for t in (x, y, xf)} <= {id(t) for t in grads}
        for i, t in enumerate(grads):
            assert t.grad.flags.c_contiguous, (graph, i)
            for u in grads[:i]:
                assert not np.shares_memory(t.grad, u.grad), graph

    def test_grad_is_settable(self):
        p = Tensor(np.ones(3), requires_grad=True)
        g = np.full(3, 0.5)
        p.grad = g
        assert p.grad is g
        q = Tensor(np.ones(3))
        q.grad = None  # no gradient to drop
        with pytest.raises(ContractError):
            q.grad = g


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

    def test_nodes_are_released_as_backward_walks_the_tape(self):
        # a 40-deep tanh chain holds 41 [256, 1024] buffers (2 MiB each);
        # backward may add a few gradients and temporaries in flight, not one
        # gradient per node
        buf = 256 * 1024 * 8
        x = Tensor(np.random.default_rng(3).normal(size=(256, 1024)), requires_grad=True)
        tracemalloc.start()
        try:
            h = x
            for i in range(40):
                h = T.tanh(h)
                if i == 19:
                    held = h
            loss = T.tsum(h)
            del h
            forward_bytes = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - forward_bytes <= 4 * buf, f"backward peaked {(peak - forward_bytes) / 2**20:.1f} MiB above the forward"
        # an intermediate the caller holds keeps its gradient
        ys = [held.data]
        for _ in range(20):
            ys.append(np.tanh(ys[-1]))
        g = np.ones_like(held.data)
        for y in reversed(ys[1:]):
            g = g * (1.0 - y * y)
        np.testing.assert_array_equal(held.grad, g)


class TestWalk:
    """The order in which backward runs the tape, and what it holds."""

    def test_three_consumers_add_in_creation_order(self):
        # x's three contributions are 1, 2^-53 and -1 per element: left to
        # right they sum to 0 (1 + 2^-53 rounds to 1), right to left to
        # 2^-53; the graph combines the consumers last-made first
        x = Tensor(np.ones(4), requires_grad=True)
        factors = [np.full(4, 1.0), np.full(4, 2.0**-53), np.full(4, -1.0)]
        c0, c1, c2 = (T.mul(x, Tensor(f)) for f in factors)
        backward(T.tsum(T.add(c2, T.add(c1, c0))))
        expected = (factors[0] + factors[1]) + factors[2]
        assert expected.tobytes() != ((factors[2] + factors[1]) + factors[0]).tobytes()
        assert x.grad.tobytes() == expected.tobytes()

    def test_a_consumer_that_feeds_another_still_adds_its_share(self):
        # x's three contributions come from mul (twice) and from add, which
        # reads mul's output: they cannot come in creation order, and all
        # three still arrive
        x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        backward(T.tsum(T.add(T.mul(x, x), x)))
        np.testing.assert_array_equal(x.grad, 2.0 * x.data + 1.0)

    @staticmethod
    def skip_chain_peak(layers, c=32, n=1024):
        """Backward's traced peak above the forward, in [c, n] buffers, of
        a stack of gated residual layers whose skip convs sum into one
        chain, as in the denoiser."""
        rng = np.random.default_rng(5)

        def param(*shape):
            return Tensor(rng.normal(size=shape) * 0.1, requires_grad=True)

        layer_params = [(param(3, 2 * c, c), param(2 * c), param(1, c, c), param(c), param(1, c, c), param(c))
                        for _ in range(layers)]
        x = Tensor(rng.normal(size=(c, n)), requires_grad=True)
        tracemalloc.start()
        try:
            h, skip = x, None
            for wu, bu, wr, br, ws, bs in layer_params:
                u = T.conv1d(h, wu, bu)
                gate = T.mul(T.tanh(T.slice_rows(u, 0, c)), T.sigmoid(T.slice_rows(u, c, 2 * c)))
                del u
                h = T.conv1d(gate, wr, br, addend=h)
                skip = T.conv1d(gate, ws, bs, addend=skip)
                del gate
            loss = T.tsum(skip)
            del h, skip
            forward_bytes = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - forward_bytes) / (c * n * 8)

    def test_backward_peak_does_not_grow_with_the_layer_count(self):
        # one layer at a time: the gate gradients of the layers below wait
        # for nothing, so none is made before its layer's turn
        for layers in (4, 12):
            assert self.skip_chain_peak(layers) <= 6.0, layers

    def test_conv1d_of_a_product_keeps_the_factors_and_the_bits(self):
        rng = np.random.default_rng(11)
        a, b, g = rng.normal(size=(6, 9)), rng.normal(size=(6, 9)), rng.normal(size=(5, 9))
        w, bias = rng.normal(size=(3, 5, 6)), rng.normal(size=5)

        def grads(product):
            wt, bt = Tensor(w, requires_grad=True), Tensor(bias, requires_grad=True)
            out = T.conv1d(product(), wt, bt, (4, 5))
            backward(T.tsum(T.mul(out, Tensor(g))))
            return wt.grad.tobytes(), bt.grad.tobytes()

        gate = T.mul(Tensor(a, requires_grad=True), Tensor(b, requires_grad=True))
        assert grads(lambda: gate) == grads(lambda: Tensor(a * b, requires_grad=True))
        # the closure holds the factors, not the product
        gate = T.mul(Tensor(a, requires_grad=True), Tensor(b, requires_grad=True))
        conv = T.conv1d(gate, Tensor(w, requires_grad=True), Tensor(bias), (4, 5))
        held = [cell.cell_contents for cell in conv._backward.__closure__]
        held += [v for h in held if isinstance(h, tuple) for v in h]
        arrays = [v for v in held if isinstance(v, np.ndarray)]
        assert not any(np.shares_memory(v, gate.data) for v in arrays)
        assert any(v is a for v in arrays) and any(v is b for v in arrays)

    def test_a_product_off_the_tape_keeps_no_factors(self):
        assert T.mul(Tensor(np.ones(3)), Tensor(np.ones(3)))._factors is None
