"""End-to-end integration tests across the data / model / training / evaluation stack."""

import numpy as np

from repro.baselines import DenseTransE
from repro.data import (
    BernoulliNegativeSampler,
    SQLiteKGStore,
    generate_synthetic_kg,
    load_csv,
    make_dataset_like,
)
from repro.evaluation import evaluate_link_prediction, evaluate_triple_classification
from repro.models import SpTorusE, SpTransE, SpTransH
from repro.training import Trainer, TrainingConfig


class TestFilePipeline:
    def test_csv_to_trained_model(self, tmp_path):
        """File loader -> dataset -> sparse model -> trainer -> link prediction."""
        rng = np.random.default_rng(0)
        rows = []
        people = [f"person_{i}" for i in range(25)]
        relations = ["knows", "likes", "works_with"]
        seen = set()
        while len(rows) < 150:
            h, t = rng.choice(25, 2, replace=False)
            r = rng.integers(0, 3)
            if (h, r, t) in seen:
                continue
            seen.add((h, r, t))
            rows.append(f"{people[h]},{relations[r]},{people[t]}")
        path = tmp_path / "toy.csv"
        path.write_text("\n".join(rows) + "\n")

        kg = load_csv(str(path)).split_train_valid_test(0.0, 0.1, rng=0)
        model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=0)
        result = Trainer(model, kg, TrainingConfig(epochs=10, batch_size=64,
                                                   learning_rate=0.05, seed=0)).train()
        assert result.final_loss < result.losses[0]

        metrics = evaluate_link_prediction(model, kg.split.test,
                                           known_triples=kg.known_triples())
        assert metrics.hits[10] >= 0.0
        # Label-level prediction round trip.
        top = model.predict_tails(head=kg.entity_vocab.index("person_0"),
                                  relation=kg.relation_vocab.index("knows"), k=5)
        assert len(top) == 5

    def test_sqlite_streaming_training(self):
        """SQLite store -> streamed batches -> manual training loop."""
        from repro.data import TripletBatch, UniformNegativeSampler
        from repro.losses import MarginRankingLoss
        from repro.optim import Adam

        kg = generate_synthetic_kg(40, 4, 300, rng=1)
        store = SQLiteKGStore()
        store.ingest_dataset(kg)

        model = SpTransE(store.n_entities, store.n_relations, 16, rng=0)
        sampler = UniformNegativeSampler(store.n_entities, rng=0)
        optimizer = Adam(model.parameters(), lr=0.01)
        criterion = MarginRankingLoss(margin=0.5)

        losses = []
        for _ in range(3):
            epoch_losses = []
            for positives in store.iter_batches(batch_size=64):
                batch = TripletBatch(positives=positives,
                                     negatives=sampler.corrupt(positives))
                model.zero_grad()
                loss = model.loss(batch, criterion)
                loss.backward()
                optimizer.step()
                epoch_losses.append(loss.item())
            losses.append(float(np.mean(epoch_losses)))
        assert losses[-1] < losses[0]
        store.close()


class TestPaperWorkloads:
    def test_scaled_benchmark_dataset_trains_with_every_model_family(self):
        kg = make_dataset_like("WN18RR", scale=0.003, rng=0)
        cfg = TrainingConfig(epochs=2, batch_size=256, learning_rate=0.01, seed=0)
        for cls in (SpTransE, SpTorusE, SpTransH, DenseTransE):
            model = cls(kg.n_entities, kg.n_relations, 16, rng=0)
            result = Trainer(model, kg, cfg).train()
            assert np.isfinite(result.final_loss)

    def test_bernoulli_sampler_in_training_loop(self):
        kg = generate_synthetic_kg(50, 5, 400, rng=2)
        sampler = BernoulliNegativeSampler(kg, rng=0)
        model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=0)
        result = Trainer(model, kg, TrainingConfig(epochs=4, batch_size=128,
                                                   learning_rate=0.02, seed=0),
                         sampler=sampler).train()
        assert result.final_loss < result.losses[0]

    def test_accuracy_parity_between_sparse_and_dense_after_training(self):
        """Section 6.2.5: sparse and dense reach comparable Hits@10."""
        kg = generate_synthetic_kg(40, 4, 500, rng=3, test_fraction=0.1)
        cfg = TrainingConfig(epochs=30, batch_size=128, learning_rate=0.05, seed=0)
        hits = {}
        for name, cls in (("sparse", SpTransE), ("dense", DenseTransE)):
            model = cls(kg.n_entities, kg.n_relations, 24, rng=0)
            Trainer(model, kg, cfg).train()
            hits[name] = evaluate_link_prediction(
                model, kg.split.test, known_triples=kg.known_triples()
            ).hits[10]
        assert abs(hits["sparse"] - hits["dense"]) < 0.25
