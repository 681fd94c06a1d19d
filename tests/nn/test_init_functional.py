"""Tests for initializers and the dissimilarity dispatch."""

import threading

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import functional, init
from repro.nn.parameter import Parameter


class TestInitializers:
    def test_uniform_bounds(self):
        p = Parameter(np.empty((100, 10)))
        init.uniform_(p, -0.5, 0.5, rng=0)
        assert p.data.min() >= -0.5 and p.data.max() <= 0.5

    def test_xavier_uniform_bound(self):
        p = Parameter(np.empty((30, 20)))
        init.xavier_uniform_(p, rng=0)
        bound = np.sqrt(6.0 / 50)
        assert np.all(np.abs(p.data) <= bound + 1e-12)

    def test_xavier_rejects_scalars(self):
        with pytest.raises(ValueError):
            init.xavier_uniform_(Parameter(np.array(1.0)))

    def test_identity_stack(self):
        p = Parameter(np.empty((4, 3, 5)))
        init.identity_stack_(p)
        expected = np.eye(3, 5)
        for r in range(4):
            np.testing.assert_allclose(p.data[r], expected)

    def test_identity_stack_requires_3d(self):
        with pytest.raises(ValueError):
            init.identity_stack_(Parameter(np.empty((3, 3))))

    def test_deterministic_given_seed(self):
        a, b = Parameter(np.empty((5, 5))), Parameter(np.empty((5, 5)))
        init.xavier_uniform_(a, rng=42)
        init.xavier_uniform_(b, rng=42)
        np.testing.assert_allclose(a.data, b.data)

    def test_uniform_default_range_is_the_unit_interval(self):
        p = Parameter(np.full((200, 5), -1.0))
        init.uniform_(p, rng=1)
        assert p.data.min() >= 0.0 and p.data.max() < 1.0

    @pytest.mark.parametrize("shape, fan_sum", [((8,), 16), ((30, 20), 50),
                                                ((4, 3, 5), 19)])
    def test_xavier_bound_comes_from_the_fans(self, shape, fan_sum):
        # A vector's fans are both its length; a stack's fan-in is the
        # product of its trailing dimensions.
        p, q = Parameter(np.empty(shape)), Parameter(np.empty(shape))
        init.xavier_uniform_(p, rng=3)
        bound = np.sqrt(6.0 / fan_sum)
        init.uniform_(q, -bound, bound, rng=3)
        np.testing.assert_array_equal(p.data, q.data)

    def test_xavier_gain_scales_the_draw(self):
        a, b = Parameter(np.empty((30, 20))), Parameter(np.empty((30, 20)))
        init.xavier_uniform_(a, rng=3)
        init.xavier_uniform_(b, gain=2.0, rng=3)
        np.testing.assert_allclose(b.data, 2.0 * a.data, rtol=1e-15)


class TestSkipInit:
    @pytest.mark.parametrize("fill", [
        lambda p: init.uniform_(p, rng=0),
        lambda p: init.xavier_uniform_(p, rng=0),
        init.identity_stack_,
    ], ids=["uniform", "xavier_uniform", "identity_stack"])
    def test_initializers_leave_the_parameter_untouched(self, fill):
        p = Parameter(np.full((2, 3, 3), 7.0))
        with init.skip_init():
            assert fill(p) is p
        np.testing.assert_array_equal(p.data, 7.0)
        fill(p)
        assert not np.all(p.data == 7.0)

    def test_mode_nests_and_is_restored_after_an_error(self):
        assert not init.skipping_init()
        with pytest.raises(RuntimeError):
            with init.skip_init():
                with init.skip_init():
                    pass
                assert init.skipping_init()
                raise RuntimeError("boom")
        assert not init.skipping_init()

    def test_mode_is_per_thread(self):
        seen = []
        with init.skip_init():
            worker = threading.Thread(target=lambda: seen.append(init.skipping_init()))
            worker.start()
            worker.join()
            assert init.skipping_init()
        assert seen == [False]


class TestDissimilarityDispatch:
    def test_known_names(self):
        for name in ("L1", "L2", "squared_L2", "torus_L1", "torus_L2"):
            assert callable(functional.get_dissimilarity(name))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            functional.get_dissimilarity("L3")

    def test_callable_passthrough(self):
        fn = lambda x: x
        assert functional.get_dissimilarity(fn) is fn

    def test_l2_values(self):
        x = Tensor([[3.0, 4.0]])
        np.testing.assert_allclose(functional.l2_dissimilarity(x).data, [5.0], rtol=1e-6)

    def test_l1_values(self):
        x = Tensor([[3.0, -4.0]])
        np.testing.assert_allclose(functional.l1_dissimilarity(x).data, [7.0])

    def test_squared_l2_values(self):
        x = Tensor([[3.0, 4.0]])
        np.testing.assert_allclose(functional.squared_l2_dissimilarity(x).data, [25.0])

    def test_torus_values(self):
        x = Tensor([[0.9, 0.2]])
        np.testing.assert_allclose(functional.l1_torus_dissimilarity(x).data, [0.3],
                                   rtol=1e-10)
        np.testing.assert_allclose(functional.l2_torus_dissimilarity(x).data,
                                   [0.01 + 0.04], rtol=1e-10)
