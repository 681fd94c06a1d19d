"""Tests for the real multiprocess data-parallel trainer."""

import numpy as np
import pytest

from repro.data import (
    BatchIterator,
    InMemoryTripleStore,
    SQLiteKGStore,
    StreamingBatchIterator,
    UniformNegativeSampler,
    generate_synthetic_kg,
)
from repro.models import SpTransE
from repro.training import (
    CommunicationModel,
    MultiprocessResult,
    MultiprocessTrainer,
    Trainer,
    TrainingConfig,
)
from repro.training import multiprocess
from repro.utils.seeding import new_rng


@pytest.fixture
def kg():
    return generate_synthetic_kg(60, 6, 480, rng=0)


def config(**overrides):
    base = dict(epochs=2, batch_size=120, learning_rate=0.01, seed=0,
                sparse_grads=True)
    base.update(overrides)
    return TrainingConfig(**base)


def memory_factory(kg, cfg):
    def build():
        rng = new_rng(cfg.seed)
        sampler = UniformNegativeSampler(kg.n_entities, rng=rng)
        return BatchIterator(kg, batch_size=cfg.batch_size, sampler=sampler,
                             shuffle=cfg.shuffle,
                             regenerate_negatives=cfg.regenerate_negatives,
                             rng=rng)
    return build


class TestCommunicationModel:
    def test_single_worker_is_free(self):
        assert CommunicationModel().allreduce_time(1, 10**9) == 0.0

    def test_cost_increases_with_volume(self):
        comm = CommunicationModel()
        assert comm.allreduce_time(8, 10**9) > comm.allreduce_time(8, 10**6)

    def test_cost_increases_with_workers_for_fixed_volume(self):
        comm = CommunicationModel(latency_s=1e-3)
        assert comm.allreduce_time(64, 10**6) > comm.allreduce_time(4, 10**6)

    def test_ring_volume_term_saturates(self):
        comm = CommunicationModel(latency_s=0.0)
        t4 = comm.allreduce_time(4, 10**9)
        t64 = comm.allreduce_time(64, 10**9)
        # 2(W-1)/W approaches 2, so the bandwidth term grows by < 35% from 4 to 64.
        assert t64 < 1.35 * t4


class TestMultiprocessTrainer:
    def test_validation(self, kg):
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        with pytest.raises(ValueError):
            MultiprocessTrainer(model, memory_factory(kg, config()), 0, config())

    def test_matches_single_worker_trajectory(self, kg):
        """Two processes exchanging row-sparse gradients follow the exact
        single-worker parameter trajectory (the DDP guarantee, measured)."""
        cfg = config(epochs=3, optimizer="adam")
        single = SpTransE(kg.n_entities, kg.n_relations, 16, rng=3)
        result_single = Trainer(single, config=cfg,
                                batches=memory_factory(kg, cfg)()).train()
        multi = SpTransE(kg.n_entities, kg.n_relations, 16, rng=3)
        result_multi = MultiprocessTrainer(
            multi, memory_factory(kg, cfg), 2, cfg).train()
        np.testing.assert_allclose(result_single.losses, result_multi.losses,
                                   rtol=1e-9)
        np.testing.assert_allclose(single.embeddings.weight.data,
                                   multi.embeddings.weight.data,
                                   rtol=1e-9, atol=1e-12)

    def test_replicas_stay_in_sync(self, kg):
        """verify_sync hashes every replica's bytes — passing it IS the test."""
        cfg = config()
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        result = MultiprocessTrainer(model, memory_factory(kg, cfg), 3, cfg,
                                     verify_sync=True).train()
        assert isinstance(result, MultiprocessResult)
        assert result.steps > 0

    def test_result_reports_measured_and_modeled_comm(self, kg):
        cfg = config(epochs=1)
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        result = MultiprocessTrainer(model, memory_factory(kg, cfg), 2, cfg).train()
        assert result.n_workers == 2
        assert result.steps == 4  # 480 triples / batch 120
        assert result.allreduce_nbytes > 0
        assert result.comm_time > 0
        assert result.modeled_comm_time > 0
        payload = result.to_dict()
        assert payload["n_workers"] == 2.0
        assert payload["allreduce_mb"] > 0

    def test_sparse_exchange_volume_below_dense(self, kg):
        """Row-sparse all-reduce ships only touched rows, not the table."""
        cfg = config(epochs=1, batch_size=24)
        model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=0)
        dense_nbytes = sum(p.nbytes for p in model.parameters())
        result = MultiprocessTrainer(model, memory_factory(kg, cfg), 2, cfg).train()
        assert result.allreduce_nbytes / result.steps < dense_nbytes

    def test_dense_and_sparse_exchange_follow_the_same_trajectory(self, kg):
        """The dense wire format (full gradients summed at rank 0) and the
        row-sparse one average the shards to the same update."""
        results = []
        for sparse in (False, True):
            cfg = config(optimizer="adagrad", sparse_grads=sparse)
            model = SpTransE(kg.n_entities, kg.n_relations, 6, rng=0)
            result = MultiprocessTrainer(model, memory_factory(kg, cfg), 2, cfg).train()
            results.append((result.losses, model.embeddings.weight.data.copy()))
        np.testing.assert_allclose(results[1][0], results[0][0], rtol=1e-9)
        np.testing.assert_allclose(results[1][1], results[0][1], atol=1e-10)

    def test_merged_gradient_is_installed_row_sparse(self, kg, monkeypatch):
        """When every shard sends a row-sparse gradient, what the optimiser
        steps on is row-sparse too (so the update stays lazy)."""
        cfg = config(epochs=1, optimizer="sgd")
        model = SpTransE(kg.n_entities, kg.n_relations, 6, rng=0)
        installed = []
        build_optimizer = multiprocess.build_optimizer

        def recording_optimizer(name, built_for, lr):
            optimizer = build_optimizer(name, built_for, lr)
            step = optimizer.step

            def recording_step():
                installed.append(model.embeddings.weight.sparse_grad is not None)
                step()

            optimizer.step = recording_step
            return optimizer

        monkeypatch.setattr(multiprocess, "build_optimizer", recording_optimizer)
        result = MultiprocessTrainer(model, memory_factory(kg, cfg), 2, cfg).train()
        assert installed == [True] * result.steps

    def test_more_workers_than_batch_rows(self, kg):
        """A replica whose shard of a batch is empty contributes nothing and
        stays in lockstep."""
        cfg = config(epochs=1, batch_size=2)
        small = kg.subsample(6, rng=0)
        model = SpTransE(small.n_entities, small.n_relations, 8, rng=0)
        result = MultiprocessTrainer(model, memory_factory(small, cfg), 3, cfg).train()
        assert result.steps == 3
        assert np.isfinite(result.losses[0])

    def test_single_worker_degenerates_to_plain_training(self, kg):
        cfg = config(epochs=2)
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=1)
        result = MultiprocessTrainer(model, memory_factory(kg, cfg), 1, cfg).train()
        reference = SpTransE(kg.n_entities, kg.n_relations, 8, rng=1)
        Trainer(reference, config=cfg, batches=memory_factory(kg, cfg)()).train()
        np.testing.assert_allclose(model.embeddings.weight.data,
                                   reference.embeddings.weight.data,
                                   rtol=1e-12)

    def test_loss_decreases(self, kg):
        cfg = config(epochs=4, learning_rate=0.05)
        model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=0)
        result = MultiprocessTrainer(model, memory_factory(kg, cfg), 2, cfg).train()
        assert result.losses[-1] < result.losses[0]

    def test_worker_error_propagates(self, kg):
        cfg = config(epochs=1)

        def broken_factory():
            raise RuntimeError("factory exploded")

        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        trainer = MultiprocessTrainer(model, broken_factory, 2, cfg)
        with pytest.raises(RuntimeError):
            trainer.train()


class TestMultiprocessStreaming:
    def test_sqlite_streaming_across_workers(self, kg, tmp_path):
        """Workers each open their own SQLite connection and stay lockstep."""
        db = str(tmp_path / "kg.sqlite")
        with SQLiteKGStore(db) as store:
            store.ingest_dataset(kg)
        cfg = config(epochs=2)

        def sqlite_factory():
            return StreamingBatchIterator(
                SQLiteKGStore(db), batch_size=cfg.batch_size,
                sampler=UniformNegativeSampler(kg.n_entities, rng=new_rng(7)),
                seed=0)

        def memory_twin_factory():
            return StreamingBatchIterator(
                InMemoryTripleStore(kg), batch_size=cfg.batch_size,
                sampler=UniformNegativeSampler(kg.n_entities, rng=new_rng(7)),
                seed=0)

        multi = SpTransE(kg.n_entities, kg.n_relations, 8, rng=2)
        result_multi = MultiprocessTrainer(multi, sqlite_factory, 2, cfg).train()
        single = SpTransE(kg.n_entities, kg.n_relations, 8, rng=2)
        result_single = Trainer(single, config=cfg,
                                batches=memory_twin_factory()).train()
        np.testing.assert_allclose(result_single.losses, result_multi.losses,
                                   rtol=1e-9)
        np.testing.assert_allclose(single.embeddings.weight.data,
                                   multi.embeddings.weight.data,
                                   rtol=1e-9, atol=1e-12)
