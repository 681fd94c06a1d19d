"""Parity suite: partitioned training must reproduce the unpartitioned trajectory.

The compacted sub-incidence SpMM preserves the exact floating-point
accumulation order of the full-matrix path, so a ``P``-way partitioned
``SpTransE`` (same backend, same seeds) must match the unpartitioned
``sparse_grads`` run **bit for bit**: per-epoch losses, every entity and
relation row, and the per-row optimiser state (lazy sparse Adam moments and
Adagrad accumulators included).  Serving answers must agree as well.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data.synthetic import make_dataset_like
from repro.models.toruse import SpTorusE
from repro.models.transe import SpTransE
from repro.models.transh import SpTransH
from repro.models.transr import SpTransR
from repro.nn.partitioned import partitioned_tables
from repro.serving import InferenceEngine, TopKQuery
from repro.training.config import TrainingConfig
from repro.training.trainer import Trainer


@pytest.fixture(scope="module")
def kg():
    return make_dataset_like("FB15K", scale=0.004, rng=0)


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _train(kg, partitions, optimizer_name, epochs=3):
    config = TrainingConfig(epochs=epochs, batch_size=512,
                            optimizer=optimizer_name, learning_rate=0.01,
                            sparse_grads=True, seed=0)
    model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=7,
                     partitions=partitions)
    trainer = Trainer(model, kg, config)
    result = trainer.train()
    return model, result, trainer.optimizer


def _model_digest(model) -> str:
    return _digest([model.entity_embedding_matrix(),
                    model.embeddings.relation_table().to_matrix()])


def _row_state(model, optimizer):
    """Optimiser state re-assembled as full (n_entities + n_relations)-row
    buffers, whatever the parameter layout."""
    buffers = {}
    if model.n_partitions > 1:
        table = model.embeddings
        for k, param in enumerate(table.bucket_parameters()):
            state = optimizer._param_state(param)
            lo, _ = table.partition.bucket_range(k)
            for name, value in state.items():
                if isinstance(value, np.ndarray):
                    buffers.setdefault(name, {})[lo] = value
        rel_state = optimizer._param_state(table.relations)
        for name, value in rel_state.items():
            if isinstance(value, np.ndarray):
                buffers.setdefault(name, {})[model.n_entities] = value
    else:
        state = optimizer._param_state(model.embeddings.weight)
        for name, value in state.items():
            if isinstance(value, np.ndarray):
                buffers.setdefault(name, {})[0] = value
    out = {}
    for name, chunks in buffers.items():
        out[name] = np.concatenate([chunks[k] for k in sorted(chunks)], axis=0)
    return out


class TestTrajectoryParity:
    @pytest.mark.parametrize("optimizer_name", ["adam", "adagrad", "sgd"])
    @pytest.mark.parametrize("partitions", [2, 3, 4])
    def test_digest_matches_unpartitioned(self, kg, optimizer_name, partitions):
        dense_model, dense_result, dense_opt = _train(kg, 1, optimizer_name)
        model, result, optimizer = _train(kg, partitions, optimizer_name)
        assert result.losses == dense_result.losses
        assert _model_digest(model) == _model_digest(dense_model)
        if optimizer_name in ("adam", "adagrad"):
            dense_state = _row_state(dense_model, dense_opt)
            part_state = _row_state(model, optimizer)
            assert set(dense_state) == set(part_state)
            for name in dense_state:
                assert np.array_equal(dense_state[name], part_state[name]), name
        model.embeddings.close()

    def test_p2_matches_p1_partitioned_digest(self, kg):
        """The acceptance check: a P=2 run reproduces the P=1 run's digest."""
        m1, r1, _ = _train(kg, 1, "adam")
        m2, r2, _ = _train(kg, 2, "adam")
        assert r1.losses == r2.losses
        assert _model_digest(m1) == _model_digest(m2)
        m2.embeddings.close()

    def test_sparse_adam_row_state_matches(self, kg):
        """Adam's lazy per-row moments and step counters line up row-for-row."""
        dense_model, _, dense_opt = _train(kg, 1, "adam")
        part_model, _, part_opt = _train(kg, 4, "adam")
        dense_state = _row_state(dense_model, dense_opt)
        part_state = _row_state(part_model, part_opt)
        # row_t: dense keeps (N + R) rows in one buffer; partitioned keeps the
        # same values split across buckets + relations.
        assert np.array_equal(dense_state["row_t"], part_state["row_t"])
        assert np.array_equal(dense_state["m"], part_state["m"])
        assert np.array_equal(dense_state["v"], part_state["v"])
        part_model.embeddings.close()


class TestServingParity:
    def test_identical_top_k_answers(self, kg):
        dense_model, _, _ = _train(kg, 1, "adam")
        part_model, _, _ = _train(kg, 3, "adam")
        dense_engine = InferenceEngine(dense_model)
        part_engine = InferenceEngine(part_model)
        for head, relation in ((1, 0), (5, 2), (9, 1)):
            a = dense_engine.top_k_tails(head, relation, k=10)
            b = part_engine.top_k_tails(head, relation, k=10)
            assert a.entities == b.entities
            assert np.allclose(a.scores, b.scores, atol=1e-9)
            a = dense_engine.top_k_heads_batch([TopKQuery(head, relation, k=10)])[0]
            b = part_engine.top_k_heads_batch([TopKQuery(head, relation, k=10)])[0]
            assert a.entities == b.entities
        nearest_dense = dense_engine.nearest_entities(7, k=5)
        nearest_part = part_engine.nearest_entities(7, k=5)
        assert nearest_dense.entities == nearest_part.entities
        part_model.embeddings.close()

    def test_score_triples_bitwise(self, kg):
        dense_model, _, _ = _train(kg, 1, "sgd", epochs=1)
        part_model, _, _ = _train(kg, 4, "sgd", epochs=1)
        triples = kg.split.train[:100]
        assert np.array_equal(dense_model.score_triples(triples),
                              part_model.score_triples(triples))
        part_model.embeddings.close()


class TestNormalizationParity:
    def test_normalize_parameters_blockwise_bitwise(self, kg):
        dense_model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=7)
        part_model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=7,
                              partitions=4)
        dense_model.normalize_parameters()
        part_model.normalize_parameters()
        assert np.array_equal(dense_model.entity_embedding_matrix(),
                              part_model.entity_embedding_matrix())
        part_model.embeddings.close()


def _layout(model, read):
    """``{name: read(param)}`` in the unpartitioned layout: a paged table's
    buckets and relation rows become the one ``weight`` they stand in for."""
    order = {}
    for table in partitioned_tables(model):
        rows = list(table.bucket_parameters())
        if table.relations is not None:
            rows.append(table.relations)
        order.update({id(param): k for k, param in enumerate(rows)})
    out, paged = {}, {}
    for name, param in model.named_parameters():
        if id(param) in order:
            owner = name.rpartition(".")[0] + ".weight"
            paged.setdefault(owner, {})[order[id(param)]] = read(param)
        else:
            out[name] = np.array(read(param))
    for name, parts in paged.items():
        out[name] = np.concatenate([parts[k] for k in sorted(parts)], axis=0)
    return out


def _state_layout(model, optimizer):
    """Every array buffer of the optimiser state, per buffer, in that layout."""
    names = {name for param in model.parameters()
             for name, value in optimizer._param_state(param).items()
             if isinstance(value, np.ndarray)}
    return {name: _layout(model, lambda p: optimizer._param_state(p)[name])
            for name in sorted(names)}


@pytest.fixture(scope="module")
def unpartitioned_runs(kg):
    """The ``sparse_grads`` P = 1 run of each (model, optimizer), trained once."""
    runs = {}

    def run(cls, optimizer_name):
        key = (cls, optimizer_name)
        if key not in runs:
            runs[key] = _train_model(kg, cls, 1, optimizer_name)
        return runs[key]
    return run


def _train_model(kg, cls, partitions, optimizer_name, epochs=3):
    config = TrainingConfig(epochs=epochs, batch_size=512,
                            optimizer=optimizer_name, learning_rate=0.01,
                            sparse_grads=True, seed=0)
    model = cls(kg.n_entities, kg.n_relations, 16, rng=7, partitions=partitions)
    trainer = Trainer(model, kg, config)
    result = trainer.train()
    return model, result, trainer.optimizer


class TestEveryPartitionableModel:
    """TorusE, TransH and TransR page their entity tables through the same
    compacted lookup, so they keep TransE's bit-identity contract."""

    @pytest.mark.parametrize("optimizer_name", ["adam", "adagrad", "sgd"])
    @pytest.mark.parametrize("partitions", [2, 3, 4])
    @pytest.mark.parametrize("cls", [SpTorusE, SpTransH, SpTransR],
                             ids=lambda cls: cls.__name__)
    def test_trajectory_matches_unpartitioned(self, kg, unpartitioned_runs, cls,
                                              partitions, optimizer_name):
        dense_model, dense_result, dense_opt = unpartitioned_runs(cls, optimizer_name)
        model, result, optimizer = _train_model(kg, cls, partitions, optimizer_name)
        try:
            assert model.n_partitions == partitions
            assert result.losses == dense_result.losses
            dense_rows = _layout(dense_model, lambda p: p.data)
            rows = _layout(model, lambda p: p.data)
            assert set(rows) == set(dense_rows)
            for name in dense_rows:
                assert np.array_equal(rows[name], dense_rows[name]), name
            dense_state = _state_layout(dense_model, dense_opt)
            state = _state_layout(model, optimizer)
            assert set(state) == set(dense_state)
            for buffer in dense_state:
                for name in dense_state[buffer]:
                    assert np.array_equal(state[buffer][name],
                                          dense_state[buffer][name]), (buffer, name)
        finally:
            for table in partitioned_tables(model):
                table.close()

    @pytest.mark.parametrize("cls", [SpTorusE, SpTransH, SpTransR],
                             ids=lambda cls: cls.__name__)
    def test_initial_weights_and_normalization_match(self, kg, cls):
        dense_model = cls(kg.n_entities, kg.n_relations, 16, rng=7)
        part_model = cls(kg.n_entities, kg.n_relations, 16, rng=7, partitions=3)
        try:
            def stretch(block):
                block *= 3.0

            for model in (dense_model, part_model):
                model.entity_table().apply_rows_(stretch)
                model.normalize_parameters()
            dense_rows = _layout(dense_model, lambda p: p.data)
            rows = _layout(part_model, lambda p: p.data)
            for name in dense_rows:
                assert np.array_equal(rows[name], dense_rows[name]), name
        finally:
            for table in partitioned_tables(part_model):
                table.close()


class TestPartitionCountIsValidated:
    @pytest.mark.parametrize("partitions", [0, -3])
    @pytest.mark.parametrize("cls", [SpTransE, SpTorusE, SpTransH, SpTransR],
                             ids=lambda cls: cls.__name__)
    def test_non_positive_count_is_refused(self, cls, partitions):
        with pytest.raises(ValueError, match="partitions must be >= 1"):
            cls(50, 4, 8, rng=0, partitions=partitions)
