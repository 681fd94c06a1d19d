"""Aliasing tests for ``accumulate_grad``'s ownership hand-off.

Closures that compute a fresh array hand it over (``owned=True``) and the
first contribution becomes the accumulator without a copy.  Closures that
forward one upstream array to several parents must not — every test here runs
with the sanitizer armed and checks that no two gradients, and no gradient
and caller-held array, end up sharing memory.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, ops, sanitize
from repro.nn.parameter import Parameter
from repro.sparse import available_backends, build_ht_incidence, spmm


@pytest.fixture(autouse=True)
def armed():
    with sanitize(True):
        yield


class TestAccumulateGrad:
    def test_owned_first_contribution_is_adopted(self):
        t = Tensor(np.zeros(4), requires_grad=True)
        fresh = np.arange(4.0)
        t.accumulate_grad(fresh, owned=True)
        assert t.grad is fresh
        t.accumulate_grad(np.ones(4), owned=True)
        assert t.grad is fresh
        np.testing.assert_array_equal(fresh, [1.0, 2.0, 3.0, 4.0])

    def test_default_copies(self):
        t = Tensor(np.zeros(4), requires_grad=True)
        shared = np.arange(4.0)
        t.accumulate_grad(shared)
        assert not np.shares_memory(t.grad, shared)

    def test_owned_array_of_another_dtype_or_read_only_is_copied(self):
        t = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        t.accumulate_grad(np.arange(4.0), owned=True)
        assert t.grad.dtype == np.float32
        u = Tensor(np.zeros(4), requires_grad=True)
        view = np.broadcast_to(np.float64(2.0), (4,))
        u.accumulate_grad(view, owned=True)
        assert u.grad.flags.writeable
        u.accumulate_grad(np.ones(4))
        np.testing.assert_array_equal(u.grad, 3.0)


class TestFanOut:
    def test_x_plus_x(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        upstream = np.array([1.0, 10.0, 100.0])
        kept = upstream.copy()
        (x + x).backward(upstream)
        np.testing.assert_array_equal(x.grad, 2 * kept)
        np.testing.assert_array_equal(upstream, kept)
        assert not np.shares_memory(x.grad, upstream)

    @pytest.mark.parametrize("combine", [lambda a, b: a + b, lambda a, b: a - b])
    def test_one_upstream_two_parents(self, combine):
        a = Tensor(np.ones(5), requires_grad=True)
        b = Tensor(np.ones(5), requires_grad=True)
        upstream = np.arange(5.0)
        combine(a, b).backward(upstream)
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, upstream)
        expected_b = b.grad.copy()
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, expected_b)
        np.testing.assert_array_equal(upstream, np.arange(5.0))

    def test_reshape_does_not_alias_the_seed(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        upstream = np.arange(6.0)
        x.reshape(6).backward(upstream)
        assert not np.shares_memory(x.grad, upstream)
        np.testing.assert_array_equal(x.grad, upstream.reshape(2, 3))

    def test_upstream_shared_by_mul_and_add(self):
        """``mul`` adopts its fresh product; ``add`` still copies the shared
        upstream, so a second contribution lands on private storage."""
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        out = x * y + x
        upstream = np.array([1.0, 1.0])
        out.backward(upstream)
        np.testing.assert_array_equal(x.grad, [4.0, 5.0])
        np.testing.assert_array_equal(y.grad, [1.0, 2.0])
        np.testing.assert_array_equal(upstream, [1.0, 1.0])

    def test_margin_loss_on_one_tensor(self):
        from repro.losses import margin_ranking_loss

        s = Tensor(np.array([0.2, 0.9, 0.4]), requires_grad=True)
        margin_ranking_loss(s, s, margin=0.5).backward()
        np.testing.assert_array_equal(s.grad, 0.0)

    def test_l2_norm_of_a_shared_input(self):
        x = Tensor(np.array([[3.0, 4.0]]), requires_grad=True)
        (ops.lp_norm(x) + ops.lp_norm(x, p=1)).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.6 + 1.0, 0.8 + 1.0]])


class TestSpmmIntoOneParameter:
    def _setup(self):
        rng = np.random.default_rng(0)
        weight = Parameter(rng.standard_normal((6, 4)))
        first = build_ht_incidence(np.array([[0, 0, 1], [2, 0, 3], [5, 0, 5]]), 6)
        second = build_ht_incidence(np.array([[4, 0, 0], [1, 0, 2], [3, 0, 3]]), 6)
        return rng, weight, first, second

    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_two_products_accumulate(self, backend):
        """TransR/TransH multiply two incidence matrices into one table."""
        rng, weight, first, second = self._setup()
        g1, g2 = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        out = (spmm(first, weight, backend=backend) * Tensor(g1)
               + spmm(second, weight, backend=backend) * Tensor(g2))
        out.sum().backward()
        expected = first.to_dense().T @ g1 + second.to_dense().T @ g2
        np.testing.assert_allclose(weight.grad, expected, rtol=1e-12, atol=1e-12)

    def test_kept_reference_survives_zero_grad(self):
        """A caller that holds ``p.grad`` keeps that step's values: the next
        backward adopts a new array instead of writing into the old one."""
        rng, weight, first, second = self._setup()
        spmm(first, weight).sum().backward()
        held = weight.grad
        snapshot = held.copy()
        weight.zero_grad()
        spmm(second, weight).sum().backward()
        assert weight.grad is not held
        assert not np.shares_memory(weight.grad, held)
        np.testing.assert_array_equal(held, snapshot)


class TestGatherRowsOutput:
    @pytest.mark.parametrize("indices", [[4, 0, 4, 2], [0, 1, 2, 3, 4, 5], []])
    def test_gathered_block_is_its_own_single_copy(self, indices):
        """``gather_rows`` returns the one array fancy indexing made: it shares
        no memory with the table and keeps its values when the table is
        updated in place (the optimizers write ``weight.data`` with ``out=``)."""
        weight = Parameter(np.arange(24.0).reshape(6, 4))
        out = ops.gather_rows(weight, np.array(indices, dtype=np.int64))
        expected = np.arange(24.0).reshape(6, 4)[indices]
        assert out.data.flags.owndata and out.data.flags.writeable
        assert not np.shares_memory(out.data, weight.data)
        weight.data *= -1.0
        np.testing.assert_array_equal(out.data, expected)
