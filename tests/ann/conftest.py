"""Shared fixtures for the ANN index tests."""

from __future__ import annotations

import os

import pytest

from repro.ann import build_index_files, load_index
from repro.baselines import DenseTransE
from repro.models.transe import SpTransE
from repro.training.checkpoint import load_model, save_checkpoint

N_ENTITIES = 300
N_RELATIONS = 6
DIM = 12

#: Every entity-table layout an L2 translation artifact can have: a
#: partitioned SpMM table, the stacked SpMM table of P = 1, and the dense
#: baseline's lookup table.
TABLES = {
    "sparse-p3": lambda n, d: SpTransE(n, N_RELATIONS, d, rng=5, partitions=3),
    "sparse-p1": lambda n, d: SpTransE(n, N_RELATIONS, d, rng=5),
    "dense": lambda n, d: DenseTransE(n, N_RELATIONS, d, rng=5),
}


@pytest.fixture(scope="module", params=sorted(TABLES))
def layout(request):
    """Name of the entity-table layout under test (a key of ``TABLES``)."""
    return request.param


@pytest.fixture(scope="module")
def make_model(layout):
    """Factory of fresh, writable models whose entity table has ``layout``."""
    return lambda n_entities=N_ENTITIES, dim=DIM: TABLES[layout](n_entities, dim)


@pytest.fixture(scope="module")
def indexed_artifact(make_model, tmp_path_factory):
    """A weight artifact with an IVF index built over its entity table."""
    directory = str(tmp_path_factory.mktemp("ann-artifact"))
    model = make_model()
    save_checkpoint(os.path.join(directory, "checkpoint.npz"), model)
    manifest = build_index_files(directory, kind="ivf", seed=0)
    return directory, model, manifest


@pytest.fixture
def index(indexed_artifact):
    directory, _, _ = indexed_artifact
    return load_index(f"{directory}/index")


@pytest.fixture
def full_table(indexed_artifact):
    """The exact fp64 entity table, read through the artifact model's table."""
    directory, _, _ = indexed_artifact
    return load_model(directory).entity_table().to_matrix()
