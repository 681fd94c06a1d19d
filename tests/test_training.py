"""Tests for the training loop and configuration."""

import numpy as np
import pytest

from repro.baselines import DenseTransE
from repro.data import generate_synthetic_kg
from repro.losses import MarginRankingLoss
from repro.models import SpTransE
from repro.optim import SGD
from repro.training import Trainer, TrainingConfig
from repro.training.trainer import TrainingResult, build_optimizer


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

    def test_custom_optimizer(self, kg, config):
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        opt = SGD(model.parameters(), lr=0.1)
        trainer = Trainer(model, kg, config, optimizer=opt)
        result = trainer.train(epochs=2)
        assert np.isfinite(result.final_loss)
        assert trainer.optimizer is opt

    @pytest.mark.parametrize("keyword", ["criterion", "sampler", "callbacks"])
    def test_loss_sampler_and_callback_keywords_are_gone(self, kg, config, keyword):
        # The loss is the config's margin ranking, the negatives the batch
        # source's, and the run's record is the returned TrainingResult.
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        with pytest.raises(TypeError, match=keyword):
            Trainer(model, kg, config, **{keyword: None})


class TestTrainingResult:
    """The returned result is the one record of a run: one ``EpochStats`` per
    epoch, in order, whose losses are the Figure-9 curve."""

    def test_one_stats_entry_per_epoch_in_order(self, kg, config):
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        result = Trainer(model, kg, config).train()
        assert [e.epoch for e in result.epochs] == list(range(config.epochs))
        assert result.losses == [e.loss for e in result.epochs]
        assert result.final_loss == result.losses[-1]
        for stats in result.epochs:
            assert stats.total_time == pytest.approx(
                stats.forward_time + stats.backward_time + stats.step_time
                + stats.data_time)
        assert result.total_time == pytest.approx(
            sum(e.total_time for e in result.epochs))

    def test_start_epoch_offsets_the_numbering(self, kg, config):
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        result = Trainer(model, kg, config).train(epochs=2, start_epoch=3)
        assert [e.epoch for e in result.epochs] == [3, 4]

    def test_epoch_loss_is_the_mean_of_its_batch_losses(self, kg, config):
        def fresh():
            model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
            return Trainer(model, kg, config.replace(normalize_every=0))

        stepped = fresh()
        batch_losses = [stepped.train_step(batch).loss for batch in stepped.batches]
        assert len(batch_losses) > 1
        assert fresh().train_epoch(0).loss == pytest.approx(np.mean(batch_losses),
                                                             rel=1e-12)

    def test_empty_result(self):
        result = TrainingResult()
        assert result.losses == []
        assert np.isnan(result.final_loss)
        assert result.breakdown() == {"forward": 0, "backward": 0, "step": 0,
                                      "data": 0, "total": 0}

    def test_criterion_is_the_configs_margin_ranking_loss(self, kg, config):
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        trainer = Trainer(model, kg, config.replace(margin=1.25))
        assert isinstance(trainer.criterion, MarginRankingLoss)
        assert trainer.criterion.margin == 1.25

    def test_needs_a_dataset_or_batches(self, kg, config):
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        with pytest.raises(ValueError, match="dataset or a pre-built"):
            Trainer(model, None, config)

    def test_skip_epochs_replays_what_training_would_draw(self, kg, config):
        def trainer():
            return Trainer(SpTransE(kg.n_entities, kg.n_relations, 8, rng=0),
                           kg, config)

        trained = trainer()
        trained.train(epochs=2)
        expected = next(iter(trained.batches))
        resumed = trainer()
        resumed.skip_epochs(2)
        replayed = next(iter(resumed.batches))
        np.testing.assert_array_equal(replayed.positives, expected.positives)
        np.testing.assert_array_equal(replayed.negatives, expected.negatives)
        fresh = next(iter(trainer().batches))
        assert not np.array_equal(fresh.negatives, expected.negatives)
