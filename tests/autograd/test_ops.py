"""Tests for the functional operators, each verified against finite differences."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck, ops


def _rand(shape, seed=0, scale=1.0, shift=0.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape) * scale + shift, requires_grad=True)


class TestElementwiseForward:
    def test_exp(self):
        x = Tensor([0.0, 1.0])
        np.testing.assert_allclose(ops.exp(x).data, np.exp([0.0, 1.0]))

    def test_log(self):
        x = Tensor([1.0, np.e])
        np.testing.assert_allclose(ops.log(x).data, [0.0, 1.0])

    def test_sqrt(self):
        np.testing.assert_allclose(ops.sqrt(Tensor([4.0, 9.0])).data, [2.0, 3.0])

    def test_absolute(self):
        np.testing.assert_allclose(ops.absolute(Tensor([-2.0, 3.0])).data, [2.0, 3.0])

    def test_relu(self):
        np.testing.assert_allclose(ops.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_maximum_minimum(self):
        a, b = Tensor([1.0, 5.0]), Tensor([3.0, 2.0])
        np.testing.assert_allclose(ops.maximum(a, b).data, [3.0, 5.0])
        np.testing.assert_allclose(ops.minimum(a, b).data, [1.0, 2.0])

    def test_softplus_stability(self):
        out = ops.softplus(Tensor([-1000.0, 0.0, 1000.0])).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[1], np.log(2.0))
        np.testing.assert_allclose(out[2], 1000.0, rtol=1e-6)

    def test_sin_cos(self):
        x = Tensor([0.0, np.pi / 2])
        np.testing.assert_allclose(ops.sin(x).data, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(ops.cos(x).data, [1.0, 0.0], atol=1e-12)


class TestElementwiseGradients:
    @pytest.mark.parametrize("fn", [
        ops.exp,
        lambda x: ops.log(x, eps=0.0),
        ops.softplus,
        ops.sin,
        ops.cos,
    ])
    def test_smooth_ops_gradcheck(self, fn):
        x = _rand((3, 4), seed=1, scale=0.5, shift=1.5)
        ok, err = gradcheck(fn, [x])
        assert ok, f"max error {err}"

    def test_sqrt_gradcheck(self):
        x = _rand((3, 3), seed=2, scale=0.2, shift=2.0)
        ok, err = gradcheck(lambda t: ops.sqrt(t), [x])
        assert ok, err

    @pytest.mark.parametrize("fn", [ops.absolute, ops.relu],
                             ids=["absolute", "relu"])
    def test_piecewise_ops_gradcheck_away_from_kinks(self, fn):
        x = Tensor([[-1.3, -0.4, 0.35, 1.7], [2.6, -2.2, 0.8, -0.65]],
                   requires_grad=True)
        ok, err = gradcheck(fn, [x])
        assert ok, f"max error {err}"

    def test_maximum_minimum_gradcheck_without_ties(self):
        a, b = _rand((3, 4), seed=3), _rand((3, 4), seed=4)
        ok, err = gradcheck(lambda s, t: ops.maximum(s, t) * 2.0 + ops.minimum(s, t),
                            [a, b])
        assert ok, err

    @pytest.mark.parametrize("fn", [ops.log, ops.sqrt], ids=["log", "sqrt"])
    def test_eps_shifts_the_argument_and_its_gradient(self, fn):
        x = _rand((2, 3), seed=5, scale=0.2, shift=1.0)
        shifted = Tensor(x.data + 0.25, requires_grad=True)
        np.testing.assert_allclose(fn(x, eps=0.25).data, fn(shifted).data)
        ok, err = gradcheck(lambda t: fn(t, eps=0.25), [x])
        assert ok, err

    def test_abs_gradient_sign(self):
        x = Tensor([-2.0, 3.0], requires_grad=True)
        ops.absolute(x).sum().backward()
        np.testing.assert_allclose(x.grad, [-1.0, 1.0])

    def test_relu_gradient_mask(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        ops.relu(x).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])

    def test_maximum_gradient_routing(self):
        a = Tensor([1.0, 5.0], requires_grad=True)
        b = Tensor([3.0, 2.0], requires_grad=True)
        ops.maximum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 0.0])


class TestGatherRows:
    def test_forward_values(self):
        w = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        idx = np.array([2, 0, 2])
        np.testing.assert_allclose(ops.gather_rows(w, idx).data, w.data[idx])

    def test_backward_scatter_add(self):
        w = Tensor(np.zeros((4, 3)), requires_grad=True)
        idx = np.array([1, 1, 3])
        ops.gather_rows(w, idx).sum().backward()
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_allclose(w.grad, expected)

    def test_gradcheck(self):
        w = _rand((5, 3), seed=3)
        idx = np.array([0, 2, 2, 4])
        ok, err = gradcheck(lambda t: ops.gather_rows(t, idx), [w])
        assert ok, err

    def test_index_out_of_range(self):
        w = Tensor(np.zeros((4, 3)))
        with pytest.raises(IndexError):
            ops.gather_rows(w, np.array([4]))

    def test_requires_1d_indices(self):
        w = Tensor(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            ops.gather_rows(w, np.array([[0, 1]]))


class TestBatchedProducts:
    def test_bmm_vec_forward(self):
        rng = np.random.default_rng(0)
        mats = rng.standard_normal((5, 3, 4))
        vecs = rng.standard_normal((5, 4))
        out = ops.bmm_vec(Tensor(mats), Tensor(vecs))
        np.testing.assert_allclose(out.data, np.einsum("bkd,bd->bk", mats, vecs))

    def test_bmm_vec_gradcheck(self):
        mats = _rand((3, 2, 4), seed=5)
        vecs = _rand((3, 4), seed=6)
        ok, err = gradcheck(lambda m, v: ops.bmm_vec(m, v), [mats, vecs])
        assert ok, err

    def test_bmm_vec_shape_validation(self):
        with pytest.raises(ValueError):
            ops.bmm_vec(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 5))))
        with pytest.raises(ValueError):
            ops.bmm_vec(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_row_dot_forward(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.ones((2, 3))
        np.testing.assert_allclose(ops.row_dot(Tensor(a), Tensor(b)).data, [3.0, 12.0])

    def test_row_dot_gradcheck(self):
        a, b = _rand((4, 3), seed=7), _rand((4, 3), seed=8)
        ok, err = gradcheck(lambda x, y: ops.row_dot(x, y), [a, b])
        assert ok, err

    def test_row_dot_shape_validation(self):
        with pytest.raises(ValueError):
            ops.row_dot(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


class TestConcatenationStack:
    def test_concatenate_forward_backward(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.zeros((4, 3)), requires_grad=True)
        out = ops.concatenate([a, b], axis=0)
        assert out.shape == (6, 3)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.ones((4, 3)))

    def test_concatenate_axis1(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 1)), requires_grad=True)
        out = ops.concatenate([a, b], axis=1)
        assert out.shape == (2, 4)
        (out * 2).sum().backward()
        np.testing.assert_allclose(b.grad, np.full((2, 1), 2.0))

    def test_concatenate_empty_list(self):
        with pytest.raises(ValueError):
            ops.concatenate([])

    def test_stack(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        out = ops.stack([a, b], axis=0)
        assert out.shape == (2, 3)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))


class TestNormsAndDistances:
    def test_l1_norm_forward(self):
        x = Tensor([[1.0, -2.0], [3.0, 4.0]])
        np.testing.assert_allclose(ops.lp_norm(x, p=1).data, [3.0, 7.0])

    def test_l2_norm_forward(self):
        x = Tensor([[3.0, 4.0]])
        np.testing.assert_allclose(ops.lp_norm(x, p=2).data, [5.0], rtol=1e-6)

    def test_lp_norm_invalid_p(self):
        with pytest.raises(ValueError):
            ops.lp_norm(Tensor([[1.0]]), p=3)

    def test_l2_norm_gradcheck(self):
        x = _rand((4, 5), seed=9, shift=0.5)
        ok, err = gradcheck(lambda t: ops.lp_norm(t, p=2), [x])
        assert ok, err

    def test_l1_norm_gradient(self):
        x = Tensor([[1.0, -2.0]], requires_grad=True)
        ops.lp_norm(x, p=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[1.0, -1.0]])

    def test_l2_norm_zero_row_is_finite(self):
        x = Tensor(np.zeros((1, 3)), requires_grad=True)
        ops.lp_norm(x, p=2).sum().backward()
        assert np.all(np.isfinite(x.grad))

    def test_squared_l2(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        out = ops.squared_l2(x)
        np.testing.assert_allclose(out.data, [5.0])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [[2.0, 4.0]])

    def test_torus_distance_values(self):
        # 0.25 -> 0.25, 0.75 -> 0.25, 1.9 -> 0.1
        x = Tensor([[0.25, 0.75, 1.9]])
        np.testing.assert_allclose(ops.torus_distance(x, p=1).data, [0.6], rtol=1e-10)
        np.testing.assert_allclose(
            ops.torus_distance(x, p=2).data, [0.25 ** 2 + 0.25 ** 2 + 0.1 ** 2], rtol=1e-10
        )

    def test_torus_distance_invalid_p(self):
        with pytest.raises(ValueError):
            ops.torus_distance(Tensor([[0.1]]), p=3)

    def test_torus_distance_gradcheck(self):
        # Keep values away from the fold points (0, 0.5) where the gradient kinks.
        rng = np.random.default_rng(10)
        vals = rng.uniform(0.05, 0.45, size=(3, 4))
        x = Tensor(vals, requires_grad=True)
        ok, err = gradcheck(lambda t: ops.torus_distance(t, p=2), [x])
        assert ok, err

    def test_torus_distance_periodicity(self):
        x = Tensor([[0.3, 0.8]])
        shifted = Tensor([[1.3, -0.2]])
        np.testing.assert_allclose(
            ops.torus_distance(x, p=2).data, ops.torus_distance(shifted, p=2).data
        )

    def test_normalize_rows_unit_norm(self):
        x = Tensor(np.random.default_rng(0).standard_normal((5, 4)), requires_grad=True)
        out = ops.normalize_rows(x)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), np.ones(5), rtol=1e-6)

    def test_normalize_rows_gradcheck(self):
        x = _rand((3, 4), seed=11, shift=1.0)
        ok, err = gradcheck(lambda t: ops.normalize_rows(t), [x])
        assert ok, err
