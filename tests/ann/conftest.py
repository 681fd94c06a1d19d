"""Shared fixtures for the ANN index tests."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.ann import build_index_files, load_index
from repro.models.transe import SpTransE
from repro.training.checkpoint import save_checkpoint

N_ENTITIES = 300
N_RELATIONS = 6
DIM = 12
PARTITIONS = 3


@pytest.fixture(scope="module")
def indexed_artifact(tmp_path_factory):
    """A partitioned weight artifact with an IVF index built over it."""
    directory = str(tmp_path_factory.mktemp("ann-artifact"))
    model = SpTransE(N_ENTITIES, N_RELATIONS, DIM, rng=5, partitions=PARTITIONS)
    save_checkpoint(os.path.join(directory, "checkpoint.npz"), model)
    manifest = build_index_files(directory, kind="ivf", seed=0)
    return directory, model, manifest


@pytest.fixture
def index(indexed_artifact):
    directory, _, _ = indexed_artifact
    return load_index(f"{directory}/index")


@pytest.fixture
def full_table(index):
    """The exact fp64 entity table, for ground-truth comparisons."""
    return index.exact_rows(np.arange(index.n_entities, dtype=np.int64))
