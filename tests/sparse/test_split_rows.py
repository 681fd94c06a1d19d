"""The row split: every share does what the serial walk does, bit for bit.

:func:`repro.sparse.kernels.split_rows` hands contiguous row shares to one
pinned worker per CPU.  The optimizers' row walk and the CSR SpMM run through
it, so each is checked here against its serial run — the same function called
inline over the whole range — and the SpMM also against ``csr @ X``, whose
private ``csr_matvecs``/``csr_matvec`` call the split reuses.  Blocks are
shrunk to 64 rows so a few hundred rows already split; block size changes no
result, only where the walk pauses.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd.function import flop_counter
from repro.data.synthetic import make_dataset_like
from repro.models.transe import SpTransE
from repro.nn.parameter import Parameter
from repro.optim import optimizer as optimizer_module
from repro.optim.adagrad import Adagrad
from repro.optim.adam import Adam
from repro.optim.sgd import SGD
from repro.profiling import peak_traced_bytes
from repro.sparse import backends, kernels
from repro.sparse.backends import _rowsparse_backward, _scipy_spmm, get_backend
from repro.sparse.kernels import split_rows
from repro.sparse.rowsparse import RowSparseGrad
from repro.training.config import TrainingConfig
from repro.training.trainer import Trainer

CPUS = len(os.sched_getaffinity(0))
multicore = pytest.mark.skipif(CPUS < 2, reason="the split needs two CPUs")


def _inline(n_rows, block, task):
    task(0, n_rows, 0, 1)


def _serially(fn):
    """``fn()`` with both routes' split replaced by the inline call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer_module, "split_rows", _inline)
        patch.setattr(backends, "split_rows", _inline)
        return fn()


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 64)


@pytest.fixture
def shares_seen(monkeypatch):
    """Records ``(start, stop, share, shares, thread)`` of every share run."""
    seen = []

    def spy(n_rows, block, task):
        def recorded(start, stop, share, shares):
            seen.append((start, stop, share, shares, threading.current_thread().name))
            task(start, stop, share, shares)
        kernels.split_rows(n_rows, block, recorded)

    monkeypatch.setattr(optimizer_module, "split_rows", spy)
    monkeypatch.setattr(backends, "split_rows", spy)
    return seen


def _assert_split(seen):
    """At least one call ran as ``CPUS`` shares on the workers."""
    if CPUS < 2:
        return
    split = [entry for entry in seen if entry[3] == CPUS]
    assert split, "no call was split"
    assert all(name.startswith("repro-rows-cpu") for *_, name in split)


# --------------------------------------------------------------------------- #
# The helper itself
# --------------------------------------------------------------------------- #
class TestSplitRows:
    @pytest.mark.parametrize("n_rows", [0, 1, 63, 64 * CPUS - 1, 64 * CPUS,
                                        64 * CPUS + 1, 1001])
    def test_shares_tile_the_range(self, n_rows):
        seen = []
        lock = threading.Lock()

        def task(start, stop, share, shares):
            with lock:
                seen.append((start, stop, share, shares))

        split_rows(n_rows, 64, task)
        seen.sort()
        if CPUS < 2 or n_rows < 64 * CPUS:
            assert seen == [(0, n_rows, 0, 1)]
            return
        assert [entry[2] for entry in seen] == list(range(CPUS))
        assert {entry[3] for entry in seen} == {CPUS}
        bounds = [seen[0][0]] + [entry[1] for entry in seen]
        assert bounds == [n_rows * k // CPUS for k in range(CPUS + 1)]

    def test_short_range_runs_inline_in_the_caller(self):
        threads = []
        split_rows(100, 64 * CPUS, lambda *args: threads.append(
            (args, threading.current_thread())))
        assert threads == [((0, 100, 0, 1), threading.current_thread())]

    def test_worker_exception_reaches_the_caller_and_the_pool_stays_usable(self):
        def task(start, stop, share, shares):
            if share == shares - 1:
                raise ValueError(f"share {share} failed")

        for _ in range(2):
            with pytest.raises(ValueError, match="failed"):
                split_rows(1000, 64, task)
        seen = []
        split_rows(1000, 64, lambda start, stop, *_: seen.append(stop - start))
        assert sum(seen) == 1000

    def test_split_inside_a_worker_runs_inline(self):
        inner = []

        def outer(start, stop, share, shares):
            split_rows(1000, 64, lambda *args: inner.append(
                (args, threading.current_thread().name)))

        split_rows(1000, 64, outer)
        if CPUS < 2:
            assert [args for args, _ in inner] == [(0, 1000, 0, 1)]
            return
        assert sorted(args for args, _ in inner) == [(0, 1000, 0, 1)] * CPUS
        assert all(name.startswith("repro-rows-cpu") for _, name in inner)

    def test_concurrent_callers_each_cover_their_range(self):
        """More callers than CPUs, switching threads every microsecond: each
        split still covers each of its rows exactly once."""
        callers = 2 * CPUS + 2
        failures = []

        def caller():
            for _ in range(40):
                hits = np.zeros(1000, dtype=np.int64)

                def task(start, stop, share, shares):
                    hits[start:stop] += 1
                split_rows(1000, 64, task)
                if not np.array_equal(hits, np.ones(1000, dtype=np.int64)):
                    failures.append(hits)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller) for _ in range(callers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_task_is_released_when_the_split_returns(self):
        class Payload:
            pass

        payload = Payload()
        ref = weakref.ref(payload)

        def task(start, stop, share, shares, payload=payload):
            assert payload is not None

        split_rows(1000, 64, task)
        del task, payload
        assert ref() is None

    def test_split_shares_is_the_pool_width_and_hands_out_units(self):
        """With ``block = 1`` and one unit per share, share k runs unit k."""
        shares = kernels.split_shares()
        assert shares == (CPUS if CPUS >= 2 else 1)
        seen = []
        lock = threading.Lock()

        def task(start, stop, share, count):
            with lock:
                seen.append((start, stop, share, count))

        split_rows(shares, 1, task)
        expected = ([(k, k + 1, k, shares) for k in range(shares)] if shares >= 2
                    else [(0, 1, 0, 1)])
        assert sorted(seen) == expected

    def test_blas_threads_reads_the_configured_count(self):
        """``OPENBLAS_NUM_THREADS`` as the BLAS itself took it (capped at the
        CPUs it saw); 0 only where no OpenBLAS is mapped."""
        script = ("import numpy\nfrom repro.sparse.kernels import blas_threads\n"
                  "print(blas_threads())\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        seen = {}
        for threads in (1, 2):
            env["OPENBLAS_NUM_THREADS"] = str(threads)
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True, timeout=60)
            assert result.returncode == 0, result.stderr
            seen[threads] = int(result.stdout)
        if seen[1] == 0:
            pytest.skip("numpy's BLAS is not an OpenBLAS found in the process maps")
        assert seen == {1: 1, 2: min(2, CPUS)}

    @multicore
    def test_child_forked_after_the_pool_started_finishes_a_split(self):
        split_rows(1000, 64, lambda *args: None)  # the parent's pool is running
        process = multiprocessing.get_context("fork").Process(target=_split_in_child)
        process.start()
        process.join(60)
        if process.is_alive():
            process.kill()
            process.join()
            pytest.fail("the forked child's split did not finish")
        assert process.exitcode == 0


def _split_in_child():
    names = []
    split_rows(1000, 64, lambda *args: names.append(threading.current_thread().name))
    os._exit(0 if len(names) == CPUS and all(
        name.startswith("repro-rows-cpu") for name in names) else 3)


# --------------------------------------------------------------------------- #
# Optimizer row walk
# --------------------------------------------------------------------------- #
OPTIMIZERS = {
    "sgd": lambda p: SGD([p], lr=1e-2),
    "sgd-momentum-decay": lambda p: SGD([p], lr=1e-2, momentum=0.9, weight_decay=0.01),
    "adagrad": lambda p: Adagrad([p], lr=1e-2),
    "adam": lambda p: Adam([p], lr=1e-2),
    "adam-decay": lambda p: Adam([p], lr=1e-2, weight_decay=0.01),
}


def _state_bytes(opt, param):
    state = opt.state.get(id(param), {})
    return {name: np.asarray(value).tobytes() for name, value in sorted(state.items())}


def _run_plan(make, shape, dtype, seed):
    """Dense and row-sparse steps of every size class on one parameter."""
    rng = np.random.default_rng(seed)
    param = Parameter(rng.standard_normal(shape).astype(dtype))
    opt = make(param)
    n_rows = shape[0] if shape else 0
    counts = sorted({max(0, min(count, n_rows))
                     for count in (0, 1, 63, n_rows // 2, n_rows - 1, n_rows)})
    for count in ["dense"] + counts + ["dense"]:
        if count == "dense" or not shape:
            param.grad = rng.standard_normal(shape).astype(dtype)
        else:
            rows = np.sort(rng.permutation(n_rows)[:count])
            values = rng.standard_normal((count,) + shape[1:]).astype(dtype)
            param.grad = RowSparseGrad(rows, values, shape)
        opt.step()
        opt.zero_grad()
    return param.data.tobytes(), _state_bytes(opt, param)


class TestOptimizerSplit:
    @pytest.mark.parametrize("trailing", [(), (3,), (4, 2)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n_rows", [0, 1, 100, 64 * 2 + 1, 301, 1000])
    @pytest.mark.parametrize("case", sorted(OPTIMIZERS))
    def test_split_equals_the_serial_walk(self, case, n_rows, dtype, trailing,
                                          shares_seen):
        shape = (n_rows,) + trailing
        got = _run_plan(OPTIMIZERS[case], shape, dtype, seed=n_rows)
        if n_rows >= 64 * max(2, CPUS):
            _assert_split(shares_seen)
        assert got == _serially(lambda: _run_plan(OPTIMIZERS[case], shape, dtype,
                                                  seed=n_rows))

    @pytest.mark.parametrize("case", sorted(OPTIMIZERS))
    def test_zero_dimensional_parameter(self, case):
        got = _run_plan(OPTIMIZERS[case], (), np.float64, seed=5)
        assert got == _serially(lambda: _run_plan(OPTIMIZERS[case], (), np.float64,
                                                  seed=5))

    @pytest.mark.parametrize("case", ["adam", "adagrad"])
    def test_bucket_parameter_whose_state_pages_between_steps(self, case, tmp_path,
                                                              shares_seen):
        """``max_resident=1``: each step on one bucket evicts the other, slab
        and optimiser state, and the next step restores both from disk."""
        from repro.nn import PartitionedEmbedding

        def run(directory):
            table = PartitionedEmbedding(1400, 3, 8, partitions=2, rng=1,
                                         directory=str(directory), max_resident=1)
            params = table.bucket_parameters()
            opt = OPTIMIZERS[case](params[0])
            opt.params.append(params[1])
            table.attach_optimizer(opt)
            rng = np.random.default_rng(2)
            for step, count in enumerate((1, 511, 513, 700, 0, 512, 700, 300)):
                param = params[step % 2]
                rows = np.sort(rng.choice(700, size=count, replace=False))
                param.grad = RowSparseGrad(rows, rng.standard_normal((count, 8)),
                                           param.shape)
                opt.step()
                opt.zero_grad()
            assert table.stats()["state_bytes_loaded"] > 0
            out = [(param.data.tobytes(), _state_bytes(opt, param)) for param in params]
            table.close()
            return out

        got = run(tmp_path / "split")
        _assert_split(shares_seen)
        assert got == _serially(lambda: run(tmp_path / "serial"))

    def test_split_step_allocates_what_the_serial_step_does(self, monkeypatch):
        """Workers allocate no scratch: the caller hands out the serial walk's."""
        monkeypatch.setattr(kernels, "BLOCK_BYTES", 1 << 19)
        rng = np.random.default_rng(6)

        def peak():
            param = Parameter(rng.standard_normal((4096, 128)))
            opt = Adam([param])
            param.grad = rng.standard_normal((4096, 128))
            opt.step()  # allocates the moments
            param.grad = rng.standard_normal((4096, 128))
            return peak_traced_bytes(opt.step)

        split = peak()
        serial = _serially(peak)
        assert split <= serial + (64 << 10), (split, serial)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_gradient_dies_once_the_step_returns(self, sparse):
        param = Parameter(np.zeros((1000, 8)))
        opt = Adam([param])
        values = np.ones((500 if sparse else 1000, 8))
        ref = weakref.ref(values)
        param.grad = RowSparseGrad(np.arange(0, 1000, 2), values, (1000, 8)) \
            if sparse else values
        del values
        opt.step()
        opt.zero_grad()
        assert ref() is None


# --------------------------------------------------------------------------- #
# The CSR SpMM
# --------------------------------------------------------------------------- #
def _csr(n_rows, n_cols, seed, density=0.05):
    matrix = sp.random(n_rows, n_cols, density=density, format="csr", random_state=seed)
    matrix.data = np.round(matrix.data * 4 - 2, 3)
    return matrix


def _textbook(csr, X):
    """The parent kernel: the values cast to the output dtype, then ``csr @ X``."""
    dtype = backends._out_dtype(X)
    cast = sp.csr_matrix((csr.data.astype(dtype), csr.indices, csr.indptr),
                         shape=csr.shape)
    return np.asarray(cast @ X)


class TestSpMMSplit:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("width", [None, 1, 3, 16])
    @pytest.mark.parametrize("n_rows", [0, 1, 100, 129, 1001])
    def test_forward_equals_csr_matmul(self, n_rows, width, dtype, shares_seen):
        rng = np.random.default_rng(n_rows)
        csr = _csr(n_rows, 300, seed=n_rows)
        shape = (300,) if width is None else (300, width)
        X = rng.standard_normal(shape).astype(dtype)
        got = _scipy_spmm(csr, X)
        expected = _textbook(csr, X)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert got.tobytes() == _serially(lambda: _scipy_spmm(csr, X)).tobytes()
        if n_rows >= 64 * max(2, CPUS):
            _assert_split(shares_seen)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16, np.int64])
    def test_input_dtypes_and_layouts(self, dtype):
        rng = np.random.default_rng(1)
        csr = _csr(700, 200, seed=1)
        X = (rng.standard_normal((200, 6)) * 4).astype(dtype)
        for operand in (X, np.asfortranarray(X), X[:, ::2]):
            got = _scipy_spmm(csr, operand)
            assert got.tobytes() == _textbook(csr, operand).tobytes()

    def test_dense_backward_equals_csr_matmul(self, shares_seen):
        rng = np.random.default_rng(2)
        A = _csr(1000, 700, seed=2)
        grad = rng.standard_normal((1000, 5))
        transposed = A.T.tocsr()
        got = _scipy_spmm(transposed, grad)
        assert got.tobytes() == _textbook(transposed, grad).tobytes()
        _assert_split(shares_seen)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_rowsparse_backward_equals_the_serial_product(self, dtype, shares_seen):
        rng = np.random.default_rng(3)
        A = _csr(1000, 900, seed=3, density=0.002)
        grad = rng.standard_normal((1000, 4)).astype(dtype)
        got = _rowsparse_backward(A, grad, 900)
        _assert_split(shares_seen)
        serial = _serially(lambda: _rowsparse_backward(A, grad, 900))
        assert np.array_equal(got.indices, serial.indices)
        assert got.values.tobytes() == serial.values.tobytes()
        dense = _textbook(A.T.tocsr(), grad)
        assert got.values.tobytes() == dense[got.indices].tobytes()

    def test_operand_dies_once_the_product_returns(self):
        A = _csr(1000, 300, seed=4)
        X = np.ones((300, 8))
        ref = weakref.ref(X)
        out = _scipy_spmm(A, X)
        del X
        assert ref() is None
        assert out.shape == (1000, 8)

    def test_flops_are_counted_by_the_caller_once(self):
        A = _csr(1000, 300, seed=5)
        X = np.ones((300, 8))
        kernel = get_backend("scipy")
        with flop_counter() as split:
            kernel(A, X)
        with flop_counter() as serial:
            _serially(lambda: kernel(A, X))
        assert split.per_op == serial.per_op == {"spmm[scipy]": 2 * A.nnz * 8}


# --------------------------------------------------------------------------- #
# Whole training steps
# --------------------------------------------------------------------------- #
def _endless(source):
    while True:
        yield from source


def trajectory(optimizer: str, sparse_grads: bool, partitions: int, steps: int = 20):
    """sha256 of the weights and optimiser state after ``steps`` train steps,
    and the steps' FLOP counts."""
    kg = make_dataset_like("FB15K", scale=0.02, rng=0)
    config = TrainingConfig(batch_size=256, optimizer=optimizer, learning_rate=0.01,
                            sparse_grads=sparse_grads, seed=0)
    model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=7, partitions=partitions)
    trainer = Trainer(model, kg, config)
    batches = itertools.islice(_endless(trainer.batches), steps)
    with flop_counter() as counters:
        for batch in batches:
            trainer.train_step(batch)
    digest = hashlib.sha256()
    for matrix in (model.entity_embedding_matrix(), model.embeddings.relation_table().to_matrix()):
        digest.update(np.ascontiguousarray(matrix).tobytes())
    for key in sorted(trainer.optimizer.state):
        for name, value in sorted(trainer.optimizer.state[key].items()):
            digest.update(name.encode())
            digest.update(np.asarray(value).tobytes())
    if partitions > 1:
        model.embeddings.close()
    return digest.hexdigest(), dict(counters.per_op)


TRAJECTORIES = [("adam", False, 1), ("adam", True, 1), ("adam", True, 4),
                ("adagrad", True, 4), ("sgd", False, 1)]


class TestTrainingSteps:
    @pytest.mark.parametrize("optimizer,sparse_grads,partitions", TRAJECTORIES)
    def test_split_steps_equal_serial_steps(self, optimizer, sparse_grads, partitions,
                                            shares_seen):
        got = trajectory(optimizer, sparse_grads, partitions)
        _assert_split(shares_seen)
        assert got == _serially(lambda: trajectory(optimizer, sparse_grads, partitions))

    def test_one_cpu_subprocess_gives_the_same_digests(self):
        """A process whose affinity is one CPU starts no worker and runs every
        split inline; its digests equal this process's at all CPUs."""
        here = {case: trajectory(*case)[0] for case in TRAJECTORIES}
        script = (
            "import os, sys, threading\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
            "import test_split_rows as t\n"
            "t.kernels.BLOCK_BYTES = 64\n"
            "for case in t.TRAJECTORIES:\n"
            "    print(*case, t.trajectory(*case)[0])\n"
            "print('threads', threading.active_count())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.split("\n")
        assert "threads 1" in lines
        for case in TRAJECTORIES:
            assert f"{case[0]} {case[1]} {case[2]} {here[case]}" in lines


def test_pool_threads_are_daemons_pinned_one_per_cpu():
    split_rows(1000, 64, lambda *args: None)
    workers = [thread for thread in threading.enumerate()
               if thread.name.startswith("repro-rows-cpu")]
    if CPUS < 2:
        assert workers == []
        return
    assert len(workers) == CPUS and all(thread.daemon for thread in workers)
    affinities = []
    split_rows(1000, 64, lambda *args: affinities.append(
        frozenset(os.sched_getaffinity(0))))
    assert sorted(map(sorted, affinities)) == [[cpu] for cpu in sorted(
        os.sched_getaffinity(0))]
