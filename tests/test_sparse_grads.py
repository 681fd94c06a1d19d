"""End-to-end tests for the row-sparse gradient pipeline.

Covers the contract promised by the ``sparse_grads`` switch:

* the SpMM / gather backwards emit row-sparse gradients that match the dense
  backward (and a finite-difference oracle) exactly;
* gradient accumulation merges sparse parts cheaply and collapses to dense
  transparently when mixed or read through ``.grad``;
* SGD / Adagrad training is numerically identical to the dense path over
  multi-epoch runs (including duplicate-entity batches and regenerated
  negatives); lazy Adam matches dense Adam exactly under full row coverage
  and within tolerance otherwise;
* the chunked closed-form ranking bounds peak memory without changing scores.
"""

import inspect

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck, no_grad
from repro.autograd.ops import gather_rows
from repro.data.dataset import KGDataset
from repro.models import SpTorusE, SpTransE, SpTransH, SpTransR, TranslationalModel
from repro.nn.parameter import Parameter
from repro.optim import SGD, Adagrad, Adam
from repro.profiling import peak_traced_bytes
from repro.registry import ModelSpec, build_model, iter_entries
from repro.sparse import IncidenceBuilder, RowSparseGrad, spmm
from repro.training import Trainer, TrainingConfig


def tiny_dataset(n_entities=12, n_relations=3, n_triples=60, seed=0):
    rng = np.random.default_rng(seed)
    triples = np.column_stack([
        rng.integers(0, n_entities, n_triples),
        rng.integers(0, n_relations, n_triples),
        rng.integers(0, n_entities, n_triples),
    ]).astype(np.int64)
    return KGDataset(triples, n_entities=n_entities, n_relations=n_relations,
                     name="tiny")


# --------------------------------------------------------------------------- #
# Backward correctness
# --------------------------------------------------------------------------- #
class TestSparseBackward:
    def test_spmm_sparse_grad_matches_dense(self):
        rng = np.random.default_rng(0)
        triples = np.array([[0, 1, 3], [2, 0, 0], [0, 1, 3], [4, 1, 2]])
        builder = IncidenceBuilder(5, 2)
        A, A_t = builder.hrt(triples, with_transpose=True)
        upstream = rng.standard_normal((4, 6))

        X_dense = Tensor(rng.standard_normal((7, 6)), requires_grad=True)
        spmm(A, X_dense, A_t=A_t).backward(upstream)
        X_sparse = Tensor(X_dense.data.copy(), requires_grad=True)
        spmm(A, X_sparse, A_t=A_t, sparse_grad=True).backward(upstream)

        rsg = X_sparse.sparse_grad
        assert isinstance(rsg, RowSparseGrad)
        # Only the columns the batch touched appear (entities 0,2,3,4 and
        # relation columns 5+0, 5+1).
        assert set(rsg.indices) == {0, 2, 3, 4, 5, 6}
        np.testing.assert_allclose(rsg.to_dense(), X_dense.grad, atol=1e-12)

    def test_spmm_sparse_gradcheck(self):
        triples = np.array([[0, 0, 1], [2, 1, 0], [1, 0, 2]])
        A = IncidenceBuilder(3, 2).hrt(triples)
        X = Tensor(np.random.default_rng(1).standard_normal((5, 4)),
                   requires_grad=True)
        ok, err = gradcheck(lambda t: spmm(A, t, sparse_grad=True), [X])
        assert ok, f"max error {err}"

    def test_spmm_duplicate_entities_coalesced(self):
        """A batch where one entity appears as both head and tail repeatedly."""
        triples = np.array([[1, 0, 1], [1, 1, 1], [1, 0, 2]])
        A = IncidenceBuilder(4, 2).hrt(triples)
        X = Tensor(np.random.default_rng(2).standard_normal((6, 3)),
                   requires_grad=True)
        upstream = np.ones((3, 3))
        spmm(A, X, sparse_grad=True).backward(upstream)
        rsg = X.sparse_grad
        assert np.array_equal(rsg.indices, np.unique(rsg.indices))
        X2 = Tensor(X.data.copy(), requires_grad=True)
        spmm(A, X2).backward(upstream)
        np.testing.assert_allclose(rsg.to_dense(), X2.grad, atol=1e-12)

    def test_spmm_non_leaf_falls_back_to_dense(self):
        A = IncidenceBuilder(3, 1).hrt(np.array([[0, 0, 1]]))
        X = Tensor(np.ones((4, 2)), requires_grad=True)
        doubled = X * 2.0
        spmm(A, doubled, sparse_grad=True).sum().backward()
        # Gradient reached the leaf densely (through the mul backward).
        assert X.sparse_grad is None
        assert X.grad is not None

    def test_gather_rows_sparse_grad(self):
        weight = Tensor(np.random.default_rng(3).standard_normal((8, 4)),
                        requires_grad=True)
        idx = np.array([5, 1, 5, 0])
        upstream = np.random.default_rng(4).standard_normal((4, 4))
        gather_rows(weight, idx, sparse_grad=True).backward(upstream)
        rsg = weight.sparse_grad
        assert isinstance(rsg, RowSparseGrad)
        assert set(rsg.indices) == {0, 1, 5}
        dense_weight = Tensor(weight.data.copy(), requires_grad=True)
        gather_rows(dense_weight, idx).backward(upstream)
        np.testing.assert_allclose(rsg.to_dense(), dense_weight.grad, atol=1e-12)


# --------------------------------------------------------------------------- #
# Accumulation semantics
# --------------------------------------------------------------------------- #
class TestAccumulation:
    def _rsg(self, rows, value, shape=(5, 2)):
        rows = np.asarray(rows)
        return RowSparseGrad(rows, np.full((rows.size,) + shape[1:], value), shape)

    def test_sparse_plus_sparse_stays_sparse(self):
        t = Tensor(np.zeros((5, 2)), requires_grad=True)
        t.accumulate_grad(self._rsg([0, 1], 1.0))
        t.accumulate_grad(self._rsg([1, 4], 2.0))
        assert t.sparse_grad is not None
        assert set(t.sparse_grad.indices) == {0, 1, 4}
        np.testing.assert_allclose(t.sparse_grad.to_dense()[1], 3.0)

    def test_dense_after_sparse_collapses(self):
        t = Tensor(np.zeros((5, 2)), requires_grad=True)
        t.accumulate_grad(self._rsg([2], 1.0))
        t.accumulate_grad(np.ones((5, 2)))
        assert t.sparse_grad is None
        np.testing.assert_allclose(t.grad[2], 2.0)
        np.testing.assert_allclose(t.grad[0], 1.0)

    def test_sparse_after_dense_scatters_into_dense(self):
        t = Tensor(np.zeros((5, 2)), requires_grad=True)
        t.accumulate_grad(np.ones((5, 2)))
        t.accumulate_grad(self._rsg([3], 4.0))
        assert t.sparse_grad is None
        np.testing.assert_allclose(t.grad[3], 5.0)

    def test_grad_read_densifies_transparently(self):
        t = Tensor(np.zeros((5, 2)), requires_grad=True)
        t.accumulate_grad(self._rsg([1], 7.0))
        assert t.has_grad
        dense = t.grad  # legacy consumers see a plain ndarray
        assert isinstance(dense, np.ndarray)
        np.testing.assert_allclose(dense[1], 7.0)
        assert t.sparse_grad is None  # densification is one-way

    def test_has_grad_does_not_densify(self):
        t = Tensor(np.zeros((5, 2)), requires_grad=True)
        t.accumulate_grad(self._rsg([1], 1.0))
        assert t.has_grad
        assert t.sparse_grad is not None

    def test_zero_grad_clears_sparse(self):
        t = Tensor(np.zeros((5, 2)), requires_grad=True)
        t.accumulate_grad(self._rsg([1], 1.0))
        t.zero_grad()
        assert not t.has_grad
        assert t.grad is None

    def test_grad_setter_accepts_sparse_and_none(self):
        t = Tensor(np.zeros((5, 2)), requires_grad=True)
        t.grad = self._rsg([0], 1.0)
        assert t.sparse_grad is not None
        t.grad = None
        assert not t.has_grad


# --------------------------------------------------------------------------- #
# Optimizer scatter updates
# --------------------------------------------------------------------------- #
class TestSparseOptimizerUpdates:
    def _pair(self, shape=(6, 3), seed=0):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal(shape)
        return Parameter(data.copy()), Parameter(data.copy())

    def _grads(self, shape=(6, 3), seed=1, steps=4):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(steps):
            rows = np.unique(rng.integers(0, shape[0], 3))
            vals = rng.standard_normal((rows.size,) + shape[1:])
            out.append(RowSparseGrad(rows, vals, shape))
        return out

    @pytest.mark.parametrize("factory", [
        lambda p: SGD([p], lr=0.1),
        lambda p: Adagrad([p], lr=0.1),
    ])
    def test_exact_match_with_dense(self, factory):
        p_dense, p_sparse = self._pair()
        opt_dense, opt_sparse = factory(p_dense), factory(p_sparse)
        for rsg in self._grads():
            opt_dense.zero_grad()
            opt_sparse.zero_grad()
            p_dense.accumulate_grad(rsg.to_dense())
            p_sparse.accumulate_grad(rsg)
            opt_dense.step()
            opt_sparse.step()
            np.testing.assert_allclose(p_sparse.data, p_dense.data, atol=1e-12)

    def test_sgd_momentum_falls_back_to_dense(self):
        p_dense, p_sparse = self._pair()
        opt_dense = SGD([p_dense], lr=0.1, momentum=0.9)
        opt_sparse = SGD([p_sparse], lr=0.1, momentum=0.9)
        for rsg in self._grads():
            opt_dense.zero_grad()
            opt_sparse.zero_grad()
            p_dense.accumulate_grad(rsg.to_dense())
            p_sparse.accumulate_grad(rsg)
            opt_dense.step()
            opt_sparse.step()
        np.testing.assert_allclose(p_sparse.data, p_dense.data, atol=1e-12)

    def test_adam_weight_decay_falls_back_to_dense(self):
        p_dense, p_sparse = self._pair()
        opt_dense = Adam([p_dense], lr=0.1, weight_decay=0.01)
        opt_sparse = Adam([p_sparse], lr=0.1, weight_decay=0.01)
        for rsg in self._grads():
            opt_dense.zero_grad()
            opt_sparse.zero_grad()
            p_dense.accumulate_grad(rsg.to_dense())
            p_sparse.accumulate_grad(rsg)
            opt_dense.step()
            opt_sparse.step()
        np.testing.assert_allclose(p_sparse.data, p_dense.data, atol=1e-12)

    def test_lazy_adam_matches_dense_under_full_coverage(self):
        """When every row is touched every step, lazy == dense exactly."""
        shape = (4, 3)
        p_dense, p_sparse = self._pair(shape)
        opt_dense, opt_sparse = Adam([p_dense], lr=0.05), Adam([p_sparse], lr=0.05)
        rng = np.random.default_rng(7)
        for _ in range(6):
            vals = rng.standard_normal(shape)
            rsg = RowSparseGrad(np.arange(shape[0]), vals, shape)
            opt_dense.zero_grad()
            opt_sparse.zero_grad()
            p_dense.accumulate_grad(vals.copy())
            p_sparse.accumulate_grad(rsg)
            opt_dense.step()
            opt_sparse.step()
            np.testing.assert_allclose(p_sparse.data, p_dense.data, atol=1e-10)

    def test_adam_survives_sparse_then_dense_grads(self):
        """Switching gradient paths mid-run must not corrupt Adam state."""
        p = Parameter(np.ones((4, 2)))
        opt = Adam([p], lr=0.1)
        p.accumulate_grad(RowSparseGrad(np.array([0, 1]), np.ones((2, 2)), (4, 2)))
        opt.step()
        opt.zero_grad()
        p.accumulate_grad(np.ones((4, 2)))
        opt.step()  # used to raise KeyError: 't'
        state = opt.state[id(p)]
        # Bias correction continued from the most-advanced row counter.
        assert state["t"] == 2
        assert np.all(np.isfinite(p.data))

    def test_adam_survives_dense_then_sparse_grads(self):
        p = Parameter(np.ones((4, 2)))
        opt = Adam([p], lr=0.1)
        for _ in range(3):
            opt.zero_grad()
            p.accumulate_grad(np.ones((4, 2)))
            opt.step()
        opt.zero_grad()
        p.accumulate_grad(RowSparseGrad(np.array([2]), np.ones((1, 2)), (4, 2)))
        opt.step()
        # Per-row counters start from the dense step count, so the touched
        # row's bias correction does not restart at t=1 with decayed moments.
        np.testing.assert_array_equal(opt.state[id(p)]["row_t"], [3, 3, 4, 3])

    def test_adam_dense_sparse_dense_round_trip_keeps_t_in_sync(self):
        p = Parameter(np.ones((4, 2)))
        opt = Adam([p], lr=0.01)
        for _ in range(2):
            opt.zero_grad()
            p.accumulate_grad(np.ones((4, 2)))
            opt.step()
        for _ in range(5):
            opt.zero_grad()
            p.accumulate_grad(RowSparseGrad(np.arange(4), np.ones((4, 2)), (4, 2)))
            opt.step()
        state = opt.state[id(p)]
        # The sparse path advanced the dense counter alongside row_t, so the
        # bias correction does not rewind when the dense path takes over.
        assert state["t"] == 7
        opt.zero_grad()
        p.accumulate_grad(np.ones((4, 2)))
        opt.step()
        assert state["t"] == 8
        # The dense step decayed every row, so the per-row counters advanced
        # with it; a further sparse step must bias-correct at t=9, not t=8.
        np.testing.assert_array_equal(state["row_t"], 8)
        opt.zero_grad()
        p.accumulate_grad(RowSparseGrad(np.array([1]), np.ones((1, 2)), (4, 2)))
        opt.step()
        np.testing.assert_array_equal(state["row_t"], [8, 9, 8, 8])
        assert state["t"] == 9
        assert np.all(np.isfinite(p.data))

    def test_lazy_adam_touched_rows_only(self):
        """Untouched rows must not move under lazy Adam."""
        p = Parameter(np.ones((5, 2)))
        opt = Adam([p], lr=0.1)
        p.accumulate_grad(RowSparseGrad(np.array([1, 3]), np.ones((2, 2)), (5, 2)))
        opt.step()
        np.testing.assert_allclose(p.data[0], 1.0)
        np.testing.assert_allclose(p.data[2], 1.0)
        assert np.all(p.data[1] < 1.0)
        row_t = opt.state[id(p)]["row_t"]
        np.testing.assert_array_equal(row_t, [0, 1, 0, 1, 0])


# --------------------------------------------------------------------------- #
# End-to-end training equivalence
# --------------------------------------------------------------------------- #
def train_twice(optimizer, model_cls=SpTransE, epochs=4, batch_size=16,
                regenerate=False, dataset=None, **model_kwargs):
    """Train the same model/dataset with and without sparse gradients."""
    results = []
    for sparse in (False, True):
        kg = dataset if dataset is not None else tiny_dataset()
        model = model_cls(kg.n_entities, kg.n_relations, 8, rng=0, **model_kwargs)
        config = TrainingConfig(epochs=epochs, batch_size=batch_size,
                                optimizer=optimizer, seed=0, sparse_grads=sparse,
                                regenerate_negatives=regenerate)
        result = Trainer(model, kg, config).train()
        results.append((result, model))
    return results


class TestTrainingEquivalence:
    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
    def test_exact_loss_curves(self, optimizer):
        (dense, m_dense), (sparse, m_sparse) = train_twice(optimizer)
        np.testing.assert_allclose(sparse.losses, dense.losses, rtol=1e-9)
        for p_dense, p_sparse in zip(m_dense.parameters(), m_sparse.parameters()):
            np.testing.assert_allclose(p_sparse.data, p_dense.data, atol=1e-10)

    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
    def test_exact_with_duplicate_entity_batches(self, optimizer):
        # 4 entities, 32-triple batches: heavy duplication inside every batch.
        kg = tiny_dataset(n_entities=4, n_relations=2, n_triples=64, seed=3)
        (dense, _), (sparse, _) = train_twice(optimizer, dataset=kg,
                                              batch_size=32)
        np.testing.assert_allclose(sparse.losses, dense.losses, rtol=1e-9)

    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
    def test_exact_with_regenerated_negatives(self, optimizer):
        (dense, _), (sparse, _) = train_twice(optimizer, regenerate=True)
        np.testing.assert_allclose(sparse.losses, dense.losses, rtol=1e-9)

    def test_adam_full_coverage_exact(self):
        # Every batch covers every entity and relation, so lazy Adam's
        # per-row counters advance in lockstep with dense Adam's global step.
        ents, rels = 4, 2
        triples = np.array([(h, r, t) for h in range(ents) for t in range(ents)
                            for r in range(rels) if h != t], dtype=np.int64)
        kg = KGDataset(triples, n_entities=ents, n_relations=rels, name="full")
        (dense, _), (sparse, _) = train_twice("adam", dataset=kg,
                                              batch_size=triples.shape[0])
        np.testing.assert_allclose(sparse.losses, dense.losses, rtol=1e-6)

    def test_adam_lazy_tracks_dense_within_tolerance(self):
        (dense, _), (sparse, _) = train_twice("adam", epochs=6)
        np.testing.assert_allclose(sparse.losses, dense.losses, rtol=5e-2)

    @pytest.mark.parametrize("model_cls", [SpTransH, SpTransR, SpTorusE])
    def test_other_sparse_models_train_equivalently(self, model_cls):
        (dense, _), (sparse, _) = train_twice("sgd", model_cls=model_cls,
                                              epochs=3)
        np.testing.assert_allclose(sparse.losses, dense.losses, rtol=1e-9)

    def test_set_sparse_grads_reaches_submodules(self):
        model = SpTransH(6, 2, 4, rng=0)
        assert model.sparse_grads is False
        model.set_sparse_grads(True)
        assert model.translations.sparse_grad is True
        assert model.normals.sparse_grad is True
        model.set_sparse_grads(False)
        assert model.translations.sparse_grad is False

    def test_trainer_enables_flag_from_config(self):
        kg = tiny_dataset()
        model = SpTransE(kg.n_entities, kg.n_relations, 4, rng=0)
        Trainer(model, kg, TrainingConfig(epochs=1, batch_size=8,
                                          sparse_grads=True))
        assert model.sparse_grads is True

    def test_trainer_disables_stale_flag(self):
        """The config owns the gradient path in both directions."""
        kg = tiny_dataset()
        model = SpTransE(kg.n_entities, kg.n_relations, 4, rng=0)
        model.set_sparse_grads(True)
        Trainer(model, kg, TrainingConfig(epochs=1, batch_size=8))
        assert model.sparse_grads is False

    def test_accumulate_grad_rejects_wrong_dense_shape(self):
        t = Tensor(np.zeros((10, 3)), requires_grad=True)
        with pytest.raises(ValueError):
            t.accumulate_grad(RowSparseGrad(np.array([0]), np.ones((1, 3)), (8, 3)))

    def test_grad_setter_rejects_wrong_dense_shape(self):
        t = Tensor(np.zeros((10, 3)), requires_grad=True)
        with pytest.raises(ValueError):
            t.grad = RowSparseGrad(np.array([0]), np.ones((1, 3)), (8, 3))

    def test_cli_exposes_switch(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["export-spec", "--sparse-grads"])
        assert args.sparse_grads is True
        args = build_parser().parse_args(["export-spec"])
        assert args.sparse_grads is False


# --------------------------------------------------------------------------- #
# Chunked closed-form ranking
# --------------------------------------------------------------------------- #
def _closed_form_inputs():
    """``(entry, dissimilarity)`` for every registration that ranks in closed form."""
    for entry in iter_entries():
        cls = entry.cls
        if (not issubclass(cls, TranslationalModel) or cls.ranking_geometry is None
                or cls.scores is not TranslationalModel.scores):
            continue
        yield pytest.param(entry, None, id=f"{entry.name}-{entry.formulation}")
        if "dissimilarity" in inspect.signature(cls).parameters:
            l1 = "torus_L1" if entry.name == "toruse" else "L1"
            yield pytest.param(entry, l1, id=f"{entry.name}-{entry.formulation}-{l1}")


class TestChunkedRanking:
    def _naive(self, model, heads, relations):
        ent = model.embeddings.entity_embeddings()
        rel = model.embeddings.relation_embeddings()
        translated = ent[heads] + rel[relations]
        with no_grad():
            return model.dissimilarity(translated[:, None, :] - ent[None, :, :]).data

    @staticmethod
    def _record_block_widths(model):
        """Wrap ``model.dissimilarity`` to record each diff block's width."""
        seen = []
        original = model.dissimilarity

        def recording(diff):
            seen.append(diff.shape[1])
            return original(diff)

        model.dissimilarity = recording
        return seen

    @pytest.mark.parametrize("model_cls", [SpTransE, SpTorusE])
    def test_blocked_matches_unblocked(self, model_cls):
        model = model_cls(50, 3, 6, rng=0)
        model.RANK_BLOCK_ELEMENTS = 64  # force many small blocks
        heads = np.array([0, 7, 13])
        relations = np.array([0, 1, 2])
        np.testing.assert_allclose(
            model.score_all_tails(heads, relations),
            self._naive(model, heads, relations),
            atol=1e-12,
        )

    def test_chunk_size_parameter_bounds_blocks(self):
        model = SpTransE(40, 2, 4, dissimilarity="L1", rng=0)
        heads = np.array([0, 1])
        relations = np.array([0, 1])
        seen = self._record_block_widths(model)
        blocked = model.score_all_tails(heads, relations, chunk_size=7)
        assert max(seen) <= 7 and len(seen) >= 6
        np.testing.assert_allclose(blocked,
                                   self._naive(model, heads, relations),
                                   atol=1e-12)

    @pytest.mark.parametrize("model_cls", [SpTransE, SpTorusE])
    def test_heads_orientation_preserved(self, model_cls):
        model = model_cls(30, 2, 5, rng=1)
        relations = np.array([0, 1])
        tails = np.array([3, 9])
        ent = model.embeddings.entity_embeddings()
        rel = model.embeddings.relation_embeddings()
        target = ent[tails] - rel[relations]
        with no_grad():
            expected = model.dissimilarity(ent[None, :, :] - target[:, None, :]).data
        np.testing.assert_allclose(model.score_all_heads(relations, tails),
                                   expected, atol=1e-12)

    @pytest.mark.parametrize("entry,dissimilarity", list(_closed_form_inputs()))
    def test_peak_memory_bounded(self, entry, dissimilarity):
        b, n, d = 8, 4000, 16
        fields = {} if dissimilarity is None else {"dissimilarity": dissimilarity}
        model = build_model(ModelSpec(model=entry.name, formulation=entry.formulation,
                                      n_entities=n, n_relations=2, embedding_dim=d,
                                      **fields), rng=0)
        model.RANK_BLOCK_ELEMENTS = 1 << 14  # ~128 rows per diff block
        heads = np.zeros(b, dtype=np.int64)
        relations = np.zeros(b, dtype=np.int64)
        full_diff_bytes = b * n * d * 8
        peak = peak_traced_bytes(lambda: model.score_all_tails(heads, relations))
        # The unblocked path allocates the (B, N, d) diff (plus temporaries of
        # the same size inside the reduction); blocked peak must stay well
        # under one full diff tensor.  The (B, N) output itself is unavoidable.
        assert peak < full_diff_bytes // 2, (
            f"peak {peak} bytes vs full diff {full_diff_bytes}"
        )

    def test_every_translational_family_ranks_in_closed_form(self):
        ids = {param.id for param in _closed_form_inputs()}
        assert {f"{name}-{formulation}" for name in ("transe", "transh", "transr", "toruse")
                for formulation in ("sparse", "dense")} | {"transc-sparse"} <= ids
