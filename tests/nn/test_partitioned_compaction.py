"""The partitioned lookup's id compaction and id validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.nn.partitioned import compact_ids, spmm_table
from repro.partition import EntityPartition
from repro.sparse.incidence import IncidenceBuilder


def oracle(triples: np.ndarray, n_relations: int):
    """The sort-based compaction: ``np.unique`` + ``np.searchsorted``."""
    entity_ids = np.unique(triples[:, 0::2])
    relation_ids = np.unique(triples[:, 1]) if n_relations else triples[:0, 1]
    compact = np.empty_like(triples)
    compact[:, 0] = np.searchsorted(entity_ids, triples[:, 0])
    compact[:, 1] = np.searchsorted(relation_ids, triples[:, 1])
    compact[:, 2] = np.searchsorted(entity_ids, triples[:, 2])
    return entity_ids, relation_ids, compact


@st.composite
def batches(draw):
    n_entities = draw(st.integers(4, 60))
    n_partitions = draw(st.integers(2, 4))
    size = -(-n_entities // n_partitions)
    assume((n_partitions - 1) * size < n_entities)  # every bucket non-empty
    n_relations = draw(st.sampled_from([0, 1, 5]))
    m = draw(st.integers(0, 40))
    # Ids at both ends of the table are drawn often, not only by chance.
    entity = st.one_of(st.sampled_from([0, n_entities - 1]),
                       st.integers(0, n_entities - 1))
    relation = st.integers(0, max(n_relations, 1) - 1)
    rows = draw(st.lists(st.tuples(entity, relation, entity), min_size=m, max_size=m))
    triples = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return triples, EntityPartition(n_entities, n_partitions), n_relations


@given(batches())
@settings(max_examples=200, deadline=None)
def test_counting_compaction_equals_the_sorting_oracle(batch):
    triples, partition, n_relations = batch
    got = compact_ids(triples, partition, n_relations)
    want = oracle(triples, n_relations)
    for name, g, w in zip(("entity_ids", "relation_ids", "compact"), got, want):
        np.testing.assert_array_equal(g, w, err_msg=name)
        assert g.dtype == np.int64, name


@pytest.mark.parametrize("n_relations", [0, 3])
@pytest.mark.parametrize("n_partitions", [2, 3, 4])
def test_single_id_and_empty_batches(n_partitions, n_relations):
    partition = EntityPartition(12, n_partitions)
    for triples in (np.empty((0, 3), dtype=np.int64),
                    np.array([[11, 0, 11]], dtype=np.int64),
                    np.array([[0, 0, 0]] * 3, dtype=np.int64)):
        for g, w in zip(compact_ids(triples, partition, n_relations),
                        oracle(triples, n_relations)):
            np.testing.assert_array_equal(g, w)


N, R = 30, 4

BAD_IDS = {
    "entity N": ([[0, 0, N]], f"entity index {N} but only {N} entities exist"),
    "entity -1": ([[-1, 0, 1]], "contains negative indices"),
    "relation R": ([[0, R, 1]], f"relation index {R} but only {R} relations exist"),
    "relation -1": ([[0, -1, 1]], "contains negative indices"),
}


@pytest.mark.parametrize("case", sorted(BAD_IDS))
@pytest.mark.parametrize("partitions", [1, 3])
def test_lookup_validates_ids_at_every_partition_count(tmp_path, partitions, case):
    """A bad id raises the resident table's ValueError at every P instead of
    an IndexError, or (relation -1) silently training relation R - 1."""
    rows, message = BAD_IDS[case]
    table = spmm_table(N, R, 8, rng=0, partitions=partitions,
                       partition_dir=str(tmp_path / "buckets"))
    triples = np.array([[1, 1, 2]] + rows, dtype=np.int64)
    try:
        with pytest.raises(ValueError, match=message):
            table.spmm(triples, IncidenceBuilder(N, R), "scipy")
    finally:
        if partitions > 1:
            table.close()
