"""Tests for the core Tensor / tape machinery."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad, is_grad_enabled


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_from_ndarray_shares_data(self):
        arr = np.ones((2, 2))
        t = Tensor(arr)
        arr[0, 0] = 5.0
        assert t.data[0, 0] == 5.0

    def test_requires_grad_promotes_int_to_float(self):
        t = Tensor(np.array([1, 2, 3]), requires_grad=True)
        assert np.issubdtype(t.dtype, np.floating)

    def test_integer_tensor_without_grad_stays_integer(self):
        t = Tensor(np.array([1, 2, 3]))
        assert np.issubdtype(t.dtype, np.integer)

    def test_object_array_rejected(self):
        with pytest.raises(TypeError):
            Tensor(np.array([object()]))

    def test_zeros_ones(self):
        assert np.all(Tensor.zeros((2, 3)).data == 0)
        assert np.all(Tensor.ones((2, 3)).data == 1)

    def test_properties(self):
        t = Tensor(np.zeros((3, 4)))
        assert t.ndim == 2
        assert t.size == 12
        assert t.nbytes == 12 * 8
        assert len(t) == 3

    def test_item_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()
        assert Tensor([3.5]).item() == 3.5


class TestArithmeticGradients:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_sub_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a - b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [-1.0, -1.0])

    def test_mul_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        np.testing.assert_allclose(b.grad, [1.0, 2.0])

    def test_div_backward(self):
        a = Tensor([6.0, 8.0], requires_grad=True)
        b = Tensor([2.0, 4.0], requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.5, 0.25])
        np.testing.assert_allclose(b.grad, [-1.5, -0.5])

    def test_neg_backward(self):
        a = Tensor([1.0, -2.0], requires_grad=True)
        (-a).sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0, -1.0])

    def test_pow_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        (a ** 3).sum().backward()
        np.testing.assert_allclose(a.grad, [12.0, 27.0])

    def test_pow_rejects_tensor_exponent(self):
        a = Tensor([2.0], requires_grad=True)
        with pytest.raises(TypeError):
            a ** Tensor([2.0])

    def test_scalar_operand(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (2.0 * a + 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 2.0])

    def test_rsub_rdiv(self):
        a = Tensor([2.0, 4.0], requires_grad=True)
        np.testing.assert_allclose((10.0 - a).data, [8.0, 6.0])
        np.testing.assert_allclose((8.0 / a).data, [4.0, 2.0])

    def test_gradient_accumulates_across_uses(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        ((a * 2) + (a * 3)).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 5.0])

    def test_chain_rule_through_deep_graph(self):
        a = Tensor([0.5], requires_grad=True)
        x = a
        for _ in range(20):
            x = x * 1.1
        x.backward()
        np.testing.assert_allclose(a.grad, [1.1 ** 20], rtol=1e-10)


class TestBroadcasting:
    def test_broadcast_add_row_vector(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_broadcast_mul_column(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((3, 1)), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(b.grad, np.full((3, 1), 4.0))

    def test_broadcast_scalar_tensor(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.array(2.0), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(b.grad, 4.0)


class TestMatmul:
    def test_matmul_forward(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.arange(12.0).reshape(3, 4))
        np.testing.assert_allclose((a @ b).data, a.data @ b.data)

    def test_matmul_backward(self):
        a = Tensor(np.random.default_rng(0).standard_normal((2, 3)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).standard_normal((3, 4)), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 4)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((2, 4)))

    def test_matvec_backward(self):
        a = Tensor(np.random.default_rng(0).standard_normal((3, 4)), requires_grad=True)
        v = Tensor(np.random.default_rng(1).standard_normal(4), requires_grad=True)
        (a @ v).sum().backward()
        np.testing.assert_allclose(v.grad, a.data.T @ np.ones(3))

    def test_vecmat_backward(self):
        v = Tensor(np.random.default_rng(0).standard_normal(3), requires_grad=True)
        a = Tensor(np.random.default_rng(1).standard_normal((3, 4)), requires_grad=True)
        (v @ a).sum().backward()
        np.testing.assert_allclose(v.grad, a.data @ np.ones(4))


class TestReductionsAndShapes:
    def test_sum_all(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_mean(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 1.0 / 6.0))

    def test_mean_axis(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a.mean(axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 0.5))

    def test_reshape_roundtrip_grad(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(6))

    def test_transpose_grad(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a.T.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_transpose_with_axes(self):
        a = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        out = a.transpose(2, 0, 1)
        assert out.shape == (4, 2, 3)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3, 4)))

    def test_getitem_slice(self):
        a = Tensor(np.arange(10.0), requires_grad=True)
        a[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        np.testing.assert_allclose(a.grad, expected)

    def test_getitem_fancy_index_duplicates_accumulate(self):
        a = Tensor(np.arange(5.0), requires_grad=True)
        idx = np.array([0, 0, 1])
        a[idx].sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 1.0, 0.0, 0.0, 0.0])


class TestBackwardSemantics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_requires_explicit_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_with_explicit_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 2).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(a.grad, [2.0, 20.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).backward()
        a.zero_grad()
        assert a.grad is None

    def test_intermediate_grads_freed(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = a * 2
        c = b.sum()
        c.backward()
        assert b.grad is None
        assert a.grad is not None

    def test_second_backward_accumulates_on_leaves(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        (a * 2).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0])

    def test_comparisons_return_plain_arrays(self):
        a = Tensor([1.0, 2.0])
        assert isinstance(a > 1.5, np.ndarray)
        assert (a >= 1.0).all()
        assert (a < 3.0).all()
        assert (a <= 2.0).all()


class TestGradMode:
    def test_no_grad_blocks_tape(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            b = a * 2
        assert not b.requires_grad
        assert b.is_leaf

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_tensor_created_under_no_grad_never_requires_grad(self):
        with no_grad():
            a = Tensor([1.0], requires_grad=True)
        assert not a.requires_grad
