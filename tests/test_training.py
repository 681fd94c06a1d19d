"""Tests for the training loop, callbacks, and configuration."""

import numpy as np
import pytest

from repro.baselines import DenseTransE
from repro.data import generate_synthetic_kg
from repro.models import SpTransE
from repro.optim import SGD, ExponentialLR
from repro.training import (
    EarlyStopping,
    EvaluationCallback,
    HistoryCallback,
    LRSchedulerCallback,
    Trainer,
    TrainingConfig,
)
from repro.training.trainer import build_optimizer


@pytest.fixture
def kg():
    return generate_synthetic_kg(50, 5, 400, rng=0)


@pytest.fixture
def config():
    return TrainingConfig(epochs=4, batch_size=128, learning_rate=0.01, seed=0)


class TestTrainingConfig:
    def test_defaults_match_paper_protocol(self):
        cfg = TrainingConfig()
        assert cfg.learning_rate == pytest.approx(4e-4)
        assert cfg.margin == pytest.approx(0.5)
        assert cfg.optimizer == "adam"

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0)
        with pytest.raises(ValueError):
            TrainingConfig(margin=-1)
        with pytest.raises(ValueError):
            TrainingConfig(optimizer="rmsprop")
        with pytest.raises(ValueError):
            TrainingConfig(normalize_every=-1)

    def test_to_dict_and_replace(self):
        cfg = TrainingConfig(epochs=10)
        clone = cfg.replace(epochs=20, batch_size=64)
        assert clone.epochs == 20 and clone.batch_size == 64
        assert cfg.epochs == 10
        assert cfg.to_dict()["margin"] == 0.5

    def test_build_optimizer_dispatch(self, kg):
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        for name in ("adam", "sgd", "adagrad"):
            assert build_optimizer(name, model, 0.01) is not None
        with pytest.raises(ValueError):
            build_optimizer("rmsprop", model, 0.01)


class TestTrainer:
    def test_loss_decreases_over_training(self, kg, config):
        model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=0)
        result = Trainer(model, kg, config.replace(epochs=8)).train()
        assert result.final_loss < result.losses[0]

    def test_result_bookkeeping(self, kg, config):
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        result = Trainer(model, kg, config).train()
        assert len(result.epochs) == config.epochs
        assert result.total_time > 0
        breakdown = result.breakdown()
        assert set(breakdown) == {"forward", "backward", "step", "data", "total"}
        assert breakdown["total"] == pytest.approx(
            breakdown["forward"] + breakdown["backward"] + breakdown["step"]
            + breakdown["data"]
        )

    def test_phase_times_positive(self, kg, config):
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        result = Trainer(model, kg, config).train()
        assert result.forward_time > 0
        assert result.backward_time > 0
        assert result.step_time > 0

    def test_deterministic_given_seed(self, kg, config):
        losses = []
        for _ in range(2):
            model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
            losses.append(Trainer(model, kg, config).train().losses)
        np.testing.assert_allclose(losses[0], losses[1])

    def test_explicit_epoch_override(self, kg, config):
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        result = Trainer(model, kg, config).train(epochs=2)
        assert len(result.epochs) == 2

    def test_train_step_returns_stats(self, kg, config):
        from repro.data import BatchIterator

        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        trainer = Trainer(model, kg, config)
        batch = next(iter(trainer.batches))
        stats = trainer.train_step(batch)
        assert stats.loss > 0
        assert stats.forward_time >= 0

    def test_works_with_dense_baseline(self, kg, config):
        model = DenseTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        result = Trainer(model, kg, config).train()
        assert result.final_loss <= result.losses[0] + 1e-6

    def test_normalization_disabled(self, kg, config):
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        model.embeddings.weight.data *= 5.0
        Trainer(model, kg, config.replace(normalize_every=0, epochs=1)).train()
        # Without the maintenance step, some entity norms stay above 1.
        assert np.any(np.linalg.norm(model.embeddings.entity_embeddings(), axis=1) > 1.0)

    def test_custom_optimizer_and_criterion(self, kg, config):
        from repro.losses import LogisticLoss

        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        opt = SGD(model.parameters(), lr=0.1)
        trainer = Trainer(model, kg, config, optimizer=opt, criterion=LogisticLoss())
        result = trainer.train(epochs=2)
        assert np.isfinite(result.final_loss)
        assert trainer.optimizer is opt


class TestCallbacks:
    def test_history_callback_records_every_epoch(self, kg, config):
        history = HistoryCallback()
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        Trainer(model, kg, config, callbacks=[history]).train()
        assert len(history.losses) == config.epochs
        assert len(history.times) == config.epochs

    def test_early_stopping_halts_training(self, kg, config):
        stopper = EarlyStopping(patience=0, min_delta=1e9)  # every epoch counts as bad
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        result = Trainer(model, kg, config.replace(epochs=10), callbacks=[stopper]).train()
        assert len(result.epochs) < 10
        assert stopper.stopped_epoch is not None

    def test_early_stopping_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=-1)

    def test_lr_scheduler_callback(self, kg, config):
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        opt = SGD(model.parameters(), lr=1.0)
        sched = ExponentialLR(opt, gamma=0.5)
        Trainer(model, kg, config.replace(epochs=3), optimizer=opt,
                callbacks=[LRSchedulerCallback(sched)]).train()
        assert opt.lr == pytest.approx(0.125)

    def test_evaluation_callback_records_metrics(self):
        kg = generate_synthetic_kg(40, 4, 300, rng=1, valid_fraction=0.1)
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        evaluator = EvaluationCallback(kg, every=2, split="valid", ks=(1, 10))
        Trainer(model, kg, TrainingConfig(epochs=4, batch_size=128, seed=0),
                callbacks=[evaluator]).train()
        assert len(evaluator.history) == 2
        assert "hits@10" in evaluator.history[0]

    def test_evaluation_callback_indexes_known_triples_once(self, monkeypatch):
        kg = generate_synthetic_kg(40, 4, 300, rng=1, valid_fraction=0.1)
        builds = []
        build = kg.known_triples
        monkeypatch.setattr(kg, "known_triples",
                            lambda: builds.append(1) or build())
        evaluator = EvaluationCallback(kg, every=1, split="valid")
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        Trainer(model, kg, TrainingConfig(epochs=3, batch_size=128, seed=0),
                callbacks=[evaluator]).train()
        assert len(evaluator.history) == 3
        assert len(builds) == 1

    def test_evaluation_callback_validation(self, kg):
        with pytest.raises(ValueError):
            EvaluationCallback(kg, every=0)
        with pytest.raises(ValueError):
            EvaluationCallback(kg, split="train")
