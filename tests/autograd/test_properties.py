"""Property-based tests (hypothesis) for the autograd engine."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor, gradcheck, ops
from repro.autograd.tensor import _unbroadcast

finite_floats = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def arrays(shape_strategy, min_val=-10, max_val=10):
    return hnp.arrays(
        dtype=np.float64,
        shape=shape_strategy,
        elements=st.floats(min_value=min_val, max_value=max_val,
                           allow_nan=False, allow_infinity=False),
    )


small_shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=5)


class TestGradientLinearity:
    @given(arrays(small_shapes))
    @settings(max_examples=30, deadline=None)
    def test_sum_gradient_is_ones(self, data):
        x = Tensor(data, requires_grad=True)
        x.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(data))

    @given(arrays(small_shapes), finite_floats)
    @settings(max_examples=30, deadline=None)
    def test_scaling_scales_gradient(self, data, alpha):
        x = Tensor(data, requires_grad=True)
        (x * alpha).sum().backward()
        np.testing.assert_allclose(x.grad, np.full_like(data, alpha), atol=1e-12)

    @given(arrays(st.just((3, 4))), arrays(st.just((3, 4))))
    @settings(max_examples=30, deadline=None)
    def test_addition_gradient_independent_of_other_operand(self, a_data, b_data):
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones_like(a_data))
        np.testing.assert_allclose(b.grad, np.ones_like(b_data))

    @given(arrays(st.just((2, 3)), min_val=0.1, max_val=5.0))
    @settings(max_examples=20, deadline=None)
    def test_mul_by_self_matches_square_rule(self, data):
        x = Tensor(data, requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * data, rtol=1e-10)


class TestUnbroadcast:
    @given(arrays(st.just((4, 3))))
    @settings(max_examples=30, deadline=None)
    def test_unbroadcast_to_row(self, grad):
        reduced = _unbroadcast(grad, (3,))
        np.testing.assert_allclose(reduced, grad.sum(axis=0))

    @given(arrays(st.just((4, 3))))
    @settings(max_examples=30, deadline=None)
    def test_unbroadcast_to_column(self, grad):
        reduced = _unbroadcast(grad, (4, 1))
        np.testing.assert_allclose(reduced, grad.sum(axis=1, keepdims=True))

    @given(arrays(small_shapes))
    @settings(max_examples=30, deadline=None)
    def test_unbroadcast_identity(self, grad):
        np.testing.assert_allclose(_unbroadcast(grad, grad.shape), grad)

    @given(arrays(st.just((2, 3, 4))))
    @settings(max_examples=30, deadline=None)
    def test_unbroadcast_preserves_total_mass(self, grad):
        reduced = _unbroadcast(grad, (4,))
        np.testing.assert_allclose(reduced.sum(), grad.sum(), rtol=1e-10)


class TestGradcheckOnRandomExpressions:
    @given(arrays(st.just((3, 4)), min_val=0.2, max_val=3.0))
    @settings(max_examples=10, deadline=None)
    def test_composite_expression(self, data):
        x = Tensor(data, requires_grad=True)
        ok, err = gradcheck(lambda t: ops.sin(t * 2.0) + ops.softplus(t), [x])
        assert ok, err

    @given(arrays(st.just((4, 3)), min_val=0.2, max_val=3.0))
    @settings(max_examples=10, deadline=None)
    def test_norm_of_affine(self, data):
        x = Tensor(data, requires_grad=True)
        ok, err = gradcheck(lambda t: ops.lp_norm(t * 1.5 + 0.3, p=2), [x])
        assert ok, err

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_matmul_gradcheck_random_shapes(self, m, k):
        rng = np.random.default_rng(m * 10 + k)
        a = Tensor(rng.standard_normal((m, k)), requires_grad=True)
        b = Tensor(rng.standard_normal((k, 3)), requires_grad=True)
        ok, err = gradcheck(lambda x, y: x @ y, [a, b])
        assert ok, err


class TestGatherScatterProperties:
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=20, deadline=None)
    def test_gather_gradient_counts_row_usage(self, n_rows, n_lookups):
        rng = np.random.default_rng(n_rows * 100 + n_lookups)
        idx = rng.integers(0, n_rows, size=n_lookups)
        w = Tensor(rng.standard_normal((n_rows, 3)), requires_grad=True)
        ops.gather_rows(w, idx).sum().backward()
        counts = np.bincount(idx, minlength=n_rows).astype(float)
        np.testing.assert_allclose(w.grad, np.repeat(counts[:, None], 3, axis=1))

    @given(arrays(st.just((5, 3))))
    @settings(max_examples=20, deadline=None)
    def test_gather_forward_matches_numpy(self, data):
        idx = np.array([4, 0, 2, 2])
        w = Tensor(data, requires_grad=True)
        np.testing.assert_allclose(ops.gather_rows(w, idx).data, data[idx])
