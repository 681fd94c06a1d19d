"""Tests for optimizers and learning-rate schedulers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor
from repro.nn.parameter import Parameter
from repro.optim import (
    SGD,
    Adagrad,
    Adam,
    ExponentialLR,
    Optimizer,
    ReduceLROnPlateau,
    StepLR,
)
from repro.sparse.kernels import block_rows
from repro.sparse.rowsparse import RowSparseGrad


def quadratic_loss(param: Parameter) -> Tensor:
    """Simple convex objective ||p - 3||^2."""
    return ((param - 3.0) ** 2).sum()


def run_steps(optimizer: Optimizer, param: Parameter, steps: int) -> float:
    for _ in range(steps):
        optimizer.zero_grad()
        loss = quadratic_loss(param)
        loss.backward()
        optimizer.step()
    return float(quadratic_loss(param).item())


class TestOptimizerBase:
    def test_empty_parameter_list(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_non_parameter_rejected(self):
        with pytest.raises(TypeError):
            SGD([Tensor(np.zeros(3), requires_grad=True)], lr=0.1)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(3))], lr=0.0)

    def test_zero_grad_clears(self):
        p = Parameter(np.zeros(3))
        opt = SGD([p], lr=0.1)
        quadratic_loss(p).backward()
        opt.zero_grad()
        assert p.grad is None

    def test_step_skips_parameters_without_grad(self):
        p, q = Parameter(np.zeros(2)), Parameter(np.zeros(2))
        opt = SGD([p, q], lr=0.1)
        quadratic_loss(p).backward()
        opt.step()
        np.testing.assert_allclose(q.data, 0.0)
        assert opt.step_count == 1

    def test_set_lr_validation(self):
        opt = SGD([Parameter(np.zeros(2))], lr=0.1)
        opt.set_lr(0.2)
        assert opt.lr == 0.2
        with pytest.raises(ValueError):
            opt.set_lr(-1.0)


class TestSGD:
    def test_single_step_formula(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1)
        quadratic_loss(p).backward()    # grad = 2(p-3) = -4
        opt.step()
        np.testing.assert_allclose(p.data, [1.4])

    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(4))
        assert run_steps(SGD([p], lr=0.1), p, 100) < 1e-6

    def test_momentum_accelerates(self):
        p1, p2 = Parameter(np.zeros(4)), Parameter(np.zeros(4))
        plain = run_steps(SGD([p1], lr=0.01), p1, 50)
        heavy = run_steps(SGD([p2], lr=0.01, momentum=0.9), p2, 50)
        assert heavy < plain

    def test_weight_decay_shrinks_solution(self):
        p = Parameter(np.zeros(4))
        run_steps(SGD([p], lr=0.1, weight_decay=1.0), p, 200)
        assert np.all(p.data < 3.0)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(2))], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(2))], lr=0.1, weight_decay=-1.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(4))
        assert run_steps(Adam([p], lr=0.1), p, 300) < 1e-4

    def test_first_step_magnitude_is_lr(self):
        # With bias correction the first Adam step is approximately lr * sign(grad).
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.05)
        quadratic_loss(p).backward()
        opt.step()
        np.testing.assert_allclose(p.data, [0.05], rtol=1e-5)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(2))], lr=0.1, betas=(1.0, 0.9))
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(2))], lr=0.1, eps=0.0)

    def test_state_is_per_parameter(self):
        p, q = Parameter(np.zeros(2)), Parameter(np.ones(3))
        opt = Adam([p, q], lr=0.1)
        (quadratic_loss(p) + quadratic_loss(q)).backward()
        opt.step()
        assert len(opt.state) == 2


class TestAdagrad:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(4))
        assert run_steps(Adagrad([p], lr=1.0), p, 300) < 1e-3

    def test_accumulator_monotone(self):
        p = Parameter(np.zeros(2))
        opt = Adagrad([p], lr=0.1)
        quadratic_loss(p).backward()
        opt.step()
        first = opt.state[id(p)]["sum_sq"].copy()
        opt.zero_grad()
        quadratic_loss(p).backward()
        opt.step()
        assert np.all(opt.state[id(p)]["sum_sq"] >= first)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            Adagrad([Parameter(np.zeros(2))], lr=0.1, eps=0.0)
        with pytest.raises(ValueError):
            Adagrad([Parameter(np.zeros(2))], lr=0.1, initial_accumulator=-1.0)


class TestSchedulers:
    def test_step_lr(self):
        opt = SGD([Parameter(np.zeros(2))], lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.1)
        lrs = [sched.step() for _ in range(4)]
        np.testing.assert_allclose(lrs, [1.0, 0.1, 0.1, 0.01])

    def test_exponential_lr(self):
        opt = SGD([Parameter(np.zeros(2))], lr=1.0)
        sched = ExponentialLR(opt, gamma=0.5)
        sched.step()
        sched.step()
        assert opt.lr == pytest.approx(0.25)

    def test_plateau_reduces_after_patience(self):
        opt = SGD([Parameter(np.zeros(2))], lr=1.0)
        sched = ReduceLROnPlateau(opt, factor=0.5, patience=1)
        for loss in [1.0, 0.9, 0.9, 0.9]:
            sched.step(loss)
        assert opt.lr == pytest.approx(0.5)

    def test_plateau_requires_metric(self):
        opt = SGD([Parameter(np.zeros(2))], lr=1.0)
        sched = ReduceLROnPlateau(opt)
        with pytest.raises(ValueError):
            sched.step()

    def test_plateau_respects_min_lr(self):
        opt = SGD([Parameter(np.zeros(2))], lr=1e-3)
        sched = ReduceLROnPlateau(opt, factor=0.1, patience=0, min_lr=1e-4)
        for _ in range(10):
            sched.step(1.0)
        assert opt.lr >= 1e-4

    def test_scheduler_validation(self):
        opt = SGD([Parameter(np.zeros(2))], lr=1.0)
        with pytest.raises(ValueError):
            StepLR(opt, step_size=0)
        with pytest.raises(ValueError):
            ExponentialLR(opt, gamma=1.5)
        with pytest.raises(ValueError):
            ReduceLROnPlateau(opt, mode="sideways")
        with pytest.raises(TypeError):
            StepLR("not an optimizer", step_size=1)

    def test_history_recorded(self):
        opt = SGD([Parameter(np.zeros(2))], lr=1.0)
        sched = ExponentialLR(opt, gamma=0.9)
        sched.step()
        assert len(sched.history) == 2


# --------------------------------------------------------------------------- #
# Dense updates run blocked and in place; the textbook expressions below are
# the reference they must reproduce bit for bit.
# --------------------------------------------------------------------------- #
def adam_reference(p, g, state, lr, beta1, beta2, eps, weight_decay):
    if weight_decay:
        g = g + weight_decay * p
    state["t"] += 1
    t = state["t"]
    if "row_t" in state:
        state["row_t"].fill(t)
    m, v = state["m"], state["v"]
    m *= beta1
    m += (1 - beta1) * g
    v *= beta2
    v += (1 - beta2) * (g * g)
    m_hat = m / (1 - beta1 ** t)
    v_hat = v / (1 - beta2 ** t)
    p -= lr * m_hat / (np.sqrt(v_hat) + eps)


# The row-sparse oracles are the expression-form ``_update_sparse`` bodies the
# blocked updates replaced.  Adam's per-row bias corrections are taken at the
# table's dtype, as the dense update takes its scalar ones.
def adam_rowsparse_reference(p, rows, vals, state, lr, beta1, beta2, eps):
    m, v, row_t = state["m"], state["v"], state["row_t"]
    row_t[rows] += 1
    t = row_t[rows]
    state["t"] = max(state["t"], int(t.max(initial=0)))
    expand = (slice(None),) + (None,) * (vals.ndim - 1)
    m_rows = beta1 * m[rows] + (1 - beta1) * vals
    v_rows = beta2 * v[rows] + (1 - beta2) * (vals * vals)
    m[rows] = m_rows
    v[rows] = v_rows
    m_hat = m_rows / (1 - beta1 ** t).astype(p.dtype)[expand]
    v_hat = v_rows / (1 - beta2 ** t).astype(p.dtype)[expand]
    p[rows] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def adagrad_rowsparse_reference(p, rows, vals, state, lr, eps):
    touched = state["sum_sq"][rows] + vals * vals
    state["sum_sq"][rows] = touched
    p[rows] -= lr * vals / (np.sqrt(touched) + eps)


def sgd_rowsparse_reference(p, rows, vals, lr):
    p[rows] -= lr * vals


def adagrad_reference(p, g, state, lr, eps):
    state["sum_sq"] += g * g
    p -= lr * g / (np.sqrt(state["sum_sq"]) + eps)


def sgd_reference(p, g, state, lr, momentum, weight_decay):
    if weight_decay:
        g = g + weight_decay * p
    if momentum:
        state["velocity"] *= momentum
        state["velocity"] += g
        g = state["velocity"]
    p -= lr * g


def _typed_parameter(values: np.ndarray) -> Parameter:
    param = Parameter(values)
    param.data = values.copy()  # Parameter() widens to float64; keep the dtype
    return param


#: 0-D, 1-D and 2-D, one block and several, row counts off the block boundary
#: (block_rows gives 65536 rows for 1-D float64, 512 for 128-wide float64).
SHAPES = [(), (7,), (70001,), (1100, 128), (300, 3, 5)]


#: name -> (optimizer factory, initial reference state, reference step).
DENSE_CASES = {
    "adam": (
        lambda p: Adam([p], lr=1e-2),
        lambda x: {"t": 0, "m": np.zeros_like(x), "v": np.zeros_like(x)},
        lambda p, g, st: adam_reference(p, g, st, 1e-2, 0.9, 0.999, 1e-8, 0.0)),
    "adam-decay": (
        lambda p: Adam([p], lr=1e-2, weight_decay=0.01),
        lambda x: {"t": 0, "m": np.zeros_like(x), "v": np.zeros_like(x)},
        lambda p, g, st: adam_reference(p, g, st, 1e-2, 0.9, 0.999, 1e-8, 0.01)),
    "adagrad": (
        lambda p: Adagrad([p], lr=1e-2, initial_accumulator=0.1),
        lambda x: {"sum_sq": np.full_like(x, 0.1)},
        lambda p, g, st: adagrad_reference(p, g, st, 1e-2, 1e-10)),
    "sgd": (
        lambda p: SGD([p], lr=1e-2),
        lambda x: {},
        lambda p, g, st: sgd_reference(p, g, st, 1e-2, 0.0, 0.0)),
    "sgd-decay": (
        lambda p: SGD([p], lr=1e-2, weight_decay=0.01),
        lambda x: {},
        lambda p, g, st: sgd_reference(p, g, st, 1e-2, 0.0, 0.01)),
    "sgd-momentum": (
        lambda p: SGD([p], lr=1e-2, momentum=0.9),
        lambda x: {"velocity": np.zeros_like(x)},
        lambda p, g, st: sgd_reference(p, g, st, 1e-2, 0.9, 0.0)),
    "sgd-momentum-decay": (
        lambda p: SGD([p], lr=1e-2, momentum=0.9, weight_decay=0.01),
        lambda x: {"velocity": np.zeros_like(x)},
        lambda p, g, st: sgd_reference(p, g, st, 1e-2, 0.9, 0.01)),
}


class TestDenseUpdateMatchesReference:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", sorted(DENSE_CASES))
    def test_25_steps_bit_identical(self, case, dtype, shape):
        make, initial_state, reference_step = DENSE_CASES[case]
        rng = np.random.default_rng(0)
        expected = rng.standard_normal(shape).astype(dtype)
        param = _typed_parameter(expected)
        opt = make(param)
        state = initial_state(expected)
        for _ in range(25):
            grad = rng.standard_normal(shape).astype(dtype)
            param.grad = grad.copy()
            opt.step()
            reference_step(expected, grad, state)
        assert param.data.dtype == dtype
        assert np.array_equal(param.data, expected)
        got = opt.state.get(id(param), {})
        for name, value in state.items():
            assert np.array_equal(got[name], value), name

    @pytest.mark.parametrize("make", [
        lambda p: Adam([p], weight_decay=0.01),
        lambda p: Adagrad([p]),
        lambda p: SGD([p], momentum=0.9, weight_decay=0.01),
    ])
    def test_gradient_is_left_untouched(self, make):
        """The update reads the gradient block by block and never writes it."""
        rng = np.random.default_rng(3)
        param = Parameter(rng.standard_normal((1100, 128)))
        grad = rng.standard_normal((1100, 128))
        saved = grad.copy()
        param.grad = grad
        make(param).step()
        assert param.grad is grad
        assert np.array_equal(grad, saved)

    def test_adam_dense_rowsparse_dense_handover(self):
        """Dense steps advance ``row_t`` with ``t``, so switching paths mid-run
        keeps every row's bias correction consistent."""
        rng = np.random.default_rng(4)
        shape = (1100, 16)
        expected = rng.standard_normal(shape)
        param = Parameter(expected.copy())
        opt = Adam([param], lr=1e-2)
        state = {"t": 0, "m": np.zeros(shape), "v": np.zeros(shape)}
        hyper = (1e-2, 0.9, 0.999, 1e-8)

        def dense_step():
            grad = rng.standard_normal(shape)
            param.grad = grad.copy()
            opt.step()
            adam_reference(expected, grad, state, *hyper, 0.0)

        for _ in range(3):
            dense_step()
        state["row_t"] = np.full(shape[0], state["t"], dtype=np.int64)
        for _ in range(3):
            rows = np.sort(rng.choice(shape[0], size=40, replace=False))
            vals = rng.standard_normal((40, shape[1]))
            param.grad = RowSparseGrad(rows, vals.copy(), shape)
            opt.step()
            adam_rowsparse_reference(expected, rows, vals, state, *hyper)
        for _ in range(3):
            dense_step()
        got = opt._param_state(param)
        assert got["t"] == state["t"]
        assert np.array_equal(got["row_t"], np.full(shape[0], state["t"]))
        assert np.array_equal(got["m"], state["m"])
        assert np.array_equal(got["v"], state["v"])
        assert np.array_equal(param.data, expected)


# --------------------------------------------------------------------------- #
# Row-sparse updates run through the same blocked bodies; the expression-form
# scatter updates above are the reference they must reproduce bit for bit.
# --------------------------------------------------------------------------- #
def _adam_sparse_oracle(p, rows, vals, state):
    if "row_t" not in state:  # taking over from dense steps
        state["row_t"] = np.full(p.shape[0], state["t"], dtype=np.int64)
    adam_rowsparse_reference(p, rows, vals, state, 1e-2, 0.9, 0.999, 1e-8)


#: ``DENSE_CASES[name]`` plus the reference row-sparse step.
SPARSE_CASES = {
    "adam": DENSE_CASES["adam"] + (_adam_sparse_oracle,),
    "adagrad": DENSE_CASES["adagrad"] + (
        lambda p, rows, vals, st: adagrad_rowsparse_reference(
            p, rows, vals, st, 1e-2, 1e-10),),
    "sgd": DENSE_CASES["sgd"] + (
        lambda p, rows, vals, st: sgd_rowsparse_reference(p, rows, vals, 1e-2),),
}

#: Trailing shapes of 1-D, 2-D and 3-D parameters; the row count is chosen per
#: dtype so that ``block + 1`` touched rows fit.
TRAILING = [(), (128,), (8, 16)]

#: Touched-row counts relative to the block size, or a dense step.
STEP_KINDS = ["dense", "none", "one", "block-1", "block", "block+1", "all"]


def _touched_count(kind: str, block: int, n_rows: int) -> int:
    return {"none": 0, "one": 1, "block-1": block - 1, "block": block,
            "block+1": block + 1, "all": n_rows}[kind]


class TestRowSparseUpdateMatchesReference:
    @pytest.mark.parametrize("trailing", TRAILING)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", sorted(SPARSE_CASES))
    @given(plan=st.lists(st.sampled_from(STEP_KINDS), min_size=3, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    @example(plan=["block-1", "dense", "block+1", "none", "all", "one", "block"],
             seed=0)
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_steps_bit_identical(self, case, dtype, trailing, plan, seed):
        make, initial_state, dense_step, sparse_step = SPARSE_CASES[case]
        block = block_rows(math.prod(trailing), np.dtype(dtype).itemsize)
        shape = (block + block // 8,) + trailing
        rng = np.random.default_rng(seed)
        expected = rng.standard_normal(shape).astype(dtype)
        param = _typed_parameter(expected)
        opt = make(param)
        state = initial_state(expected)
        for kind in plan:
            if kind == "dense":
                grad = rng.standard_normal(shape).astype(dtype)
                param.grad = grad.copy()
                opt.step()
                dense_step(expected, grad, state)
                continue
            count = _touched_count(kind, block, shape[0])
            rows = np.sort(rng.choice(shape[0], size=count, replace=False))
            vals = rng.standard_normal((count,) + trailing).astype(dtype)
            param.grad = RowSparseGrad(rows, vals.copy(), shape)
            opt.step()
            assert param.sparse_grad is not None  # took the row-sparse path
            assert np.array_equal(param.sparse_grad.values, vals)
            sparse_step(expected, rows, vals, state)
        assert param.data.dtype == dtype
        assert np.array_equal(param.data, expected)
        got = opt.state.get(id(param), {})
        for name, value in state.items():
            assert np.array_equal(got[name], value), name
            if isinstance(value, np.ndarray):
                assert got[name].dtype == value.dtype, name

    @pytest.mark.parametrize("case", ["adam", "adagrad"])
    def test_bucket_parameter_whose_state_pages_between_steps(self, case, tmp_path):
        """``max_resident=1``: every step on the other bucket evicts this one,
        slab and optimiser state, and the next step restores both from disk."""
        from repro.nn import PartitionedEmbedding

        make, initial_state, _, sparse_step = SPARSE_CASES[case]
        rows_per_bucket, dim = 700, 128  # two blocks of 512 rows per bucket
        table = PartitionedEmbedding(2 * rows_per_bucket, 3, dim, partitions=2, rng=1,
                                     directory=str(tmp_path), max_resident=1)
        params = table.bucket_parameters()
        opt = make(params[0])
        opt.params.append(params[1])
        table.attach_optimizer(opt)
        expected = [param.data.copy() for param in params]
        states = [initial_state(e) for e in expected]
        rng = np.random.default_rng(2)
        for step in range(6):
            k = step % 2
            count = (1, 511, 513, 700, 0, 512)[step]
            rows = np.sort(rng.choice(rows_per_bucket, size=count, replace=False))
            vals = rng.standard_normal((count, dim))
            params[k].grad = RowSparseGrad(rows, vals.copy(), params[k].shape)
            opt.step()
            opt.zero_grad()
            sparse_step(expected[k], rows, vals, states[k])
        assert table.stats()["state_bytes_loaded"] > 0
        for k in (0, 1):
            assert np.array_equal(params[k].data, expected[k])
            got = opt._param_state(params[k])
            for name, value in states[k].items():
                assert np.array_equal(got[name], value), name
        table.close()
