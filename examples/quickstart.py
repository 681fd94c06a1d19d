"""Quickstart: train a sparse TransE model and evaluate link prediction.

Run with::

    python examples/quickstart.py

The script generates a small synthetic knowledge graph shaped like a scaled-down
FB15K (the paper's primary dataset), trains SpTransE — TransE expressed through
one sparse-dense matrix multiplication per batch — and reports filtered link-
prediction metrics plus the forward/backward/step time breakdown the paper
uses as its headline measurement.
"""

from repro.data import make_dataset_like
from repro.evaluation import evaluate_link_prediction
from repro.models import SpTransE
from repro.registry import spec_from_model
from repro.training import Trainer, TrainingConfig


def main() -> None:
    # A synthetic stand-in for FB15K at ~1% scale: same shape, laptop-friendly size.
    kg = make_dataset_like("FB15K", scale=0.01, rng=0, test_fraction=0.05)
    print(f"dataset: {kg}")

    model = SpTransE(
        n_entities=kg.n_entities,
        n_relations=kg.n_relations,
        embedding_dim=64,
        dissimilarity="L2",
        backend="scipy",          # production SpMM kernel; "numpy" is the oracle
        rng=0,
    )
    print(f"model: {spec_from_model(model).to_dict()}")

    config = TrainingConfig(
        epochs=20,
        batch_size=2048,
        learning_rate=0.01,
        margin=0.5,
        optimizer="adam",
        seed=0,
    )
    trainer = Trainer(model, kg, config)
    result = trainer.train()

    print(f"\nfinal training loss: {result.final_loss:.4f} "
          f"(first epoch {result.losses[0]:.4f})")
    breakdown = result.breakdown()
    print("training time breakdown (seconds):")
    for phase in ("forward", "backward", "step", "data"):
        print(f"  {phase:>9s}: {breakdown[phase]:.3f}")
    print(f"  {'total':>9s}: {breakdown['total']:.3f}")

    metrics = evaluate_link_prediction(
        model, kg.split.test, known_triples=kg.known_triples(), ks=(1, 3, 10)
    )
    print("\nfiltered link prediction on the held-out split:")
    print(f"  MRR      : {metrics.mrr:.4f}")
    print(f"  MeanRank : {metrics.mean_rank:.1f}")
    for k, value in metrics.hits.items():
        print(f"  Hits@{k:<3d}: {value:.4f}")

    head, relation = int(kg.split.test[0, 0]), int(kg.split.test[0, 1])
    top = model.predict_tails(head, relation, k=5)
    print(f"\ntop-5 predicted tails for (entity {head}, relation {relation}): {top.tolist()}")


if __name__ == "__main__":
    main()
