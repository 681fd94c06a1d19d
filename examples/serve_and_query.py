"""Serving walkthrough: train → checkpoint → spec → engine → HTTP endpoint.

Run with::

    python examples/serve_and_query.py

The script trains a small SpTransE model, writes a checkpoint, rebuilds the
exact model from the checkpoint's stored ``ModelSpec``, and then exercises the
whole serving stack in-process:

1. the :class:`~repro.serving.InferenceEngine` programmatic API (top-k with
   filtered-candidate masks, scoring, the LRU result cache);
2. query coalescing (one vectorised scoring call for a batch of queries);
3. the JSON/HTTP server (the same thing ``sptransx serve`` runs), queried
   with plain ``urllib`` — equivalent to ``sptransx query``.
"""

import json
import os
import tempfile
import threading
import urllib.request

from repro.data import make_dataset_like
from repro.registry import ModelSpec, build_model
from repro.serving import InferenceEngine, TopKQuery, make_server
from repro.training import Trainer, TrainingConfig, load_model, save_checkpoint


def main() -> None:
    # -------------------------------------------------------------- train
    kg = make_dataset_like("WN18RR", scale=0.01, rng=0, test_fraction=0.05)
    print(f"dataset: {kg}")

    spec = ModelSpec(model="transe", formulation="sparse",
                     n_entities=kg.n_entities, n_relations=kg.n_relations,
                     embedding_dim=32, dissimilarity="L2")
    model = build_model(spec, rng=0)
    trainer = Trainer(model, kg, TrainingConfig(epochs=10, batch_size=1024,
                                                learning_rate=0.01, seed=0))
    trainer.train()

    with tempfile.TemporaryDirectory() as tmpdir:
        checkpoint_path = os.path.join(tmpdir, "transe.npz")
        save_checkpoint(checkpoint_path, model, epoch=10)
        print(f"checkpoint written to {checkpoint_path}")

        # The checkpoint stores the spec; load_model rebuilds the exact model
        # over the weight files, which it maps: serve inside this block.
        restored = load_model(checkpoint_path)
        print(f"restored from spec: {type(restored).__name__}, "
              f"backend={restored.backend}, dissimilarity={restored.dissimilarity_name}")

        # ------------------------------------------------- programmatic engine
        engine = InferenceEngine(restored, known_triples=kg.known_triples(),
                                 cache_size=1024)
        head, relation, tail = (int(x) for x in kg.split.test[0])

        top = engine.top_k_tails(head, relation, k=5)
        print(f"\ntop-5 tails for ({head}, {relation}, ?): {list(top.entities)}")

        filtered = engine.top_k_tails(head, relation, k=5, filtered=True)
        print(f"same query, known positives masked:      {list(filtered.entities)}")

        score = engine.score(head, relation, tail)
        print(f"score({head}, {relation}, {tail}) = {score:.4f}")

        neighbours = engine.nearest_entities(head, k=3)
        print(f"entities nearest to {head} in embedding space: {list(neighbours.entities)}")

        # A batch of queries costs one scoring call, not len(queries).
        queries = [TopKQuery(h, relation, 3) for h in range(8)]
        engine.top_k_tails_batch(queries)
        print(f"engine stats after the batch: {engine.stats()}")

        # ------------------------------------------------------- HTTP serving
        server = make_server(engine, port=0)           # what `sptransx serve` runs
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        print(f"\nserving on {server.url}")

        request = urllib.request.Request(
            server.url + "/v1/top_k_tails",
            data=json.dumps({"head": head, "relation": relation, "k": 5}).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as response:
            payload = json.loads(response.read())
        print(f"HTTP answer: {payload['entities']}")
        assert payload["entities"] == list(top.entities)

        with urllib.request.urlopen(server.url + "/v1/spec") as response:
            print(f"served spec: {json.loads(response.read())}")

        server.shutdown()
        server.close()
        print("done")


if __name__ == "__main__":
    main()
