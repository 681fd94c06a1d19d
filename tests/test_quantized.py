"""Quantized serving weights: codec, artifact layout, and rank parity.

The acceptance contract: int8/fp16 artifacts of TransE at L2 serve with top-k
ranks identical to full-precision serving (exact rescoring from the float64
originals) at no more than half the resident bucket bytes; models without an
L2 query vector serve the coarse quantized ranks.
"""

import json
import os

import numpy as np
import pytest

from repro.models.toruse import SpTorusE
from repro.models.transe import SpTransE
from repro.models.transh import SpTransH
from repro.models.transr import SpTransR
from repro.nn import quantize
from repro.nn.partitioned import PARTITION_MANIFEST
from repro.serving.engine import InferenceEngine
from repro.training.checkpoint import save_checkpoint, load_model


@pytest.fixture
def artifact(tmp_path):
    """A partitioned artifact, not yet quantized."""
    model = SpTransE(120, 5, 12, partitions=3, rng=7, max_resident=2)
    path = str(tmp_path / "artifact")
    os.makedirs(path)
    save_checkpoint(os.path.join(path, "checkpoint.npz"), model)
    return model, path


def quantize_artifact(path, mode):
    """Write ``mode`` twins into the artifact: from now on it serves them."""
    return quantize.quantize_weight_files(os.path.join(path, "weights"), mode)


class TestCodec:
    def test_int8_roundtrip_error_bound(self):
        rng = np.random.default_rng(0)
        slab = rng.standard_normal((50, 16))
        codes, scales = quantize.quantize_int8(slab)
        assert codes.dtype == np.int8 and scales.dtype == np.float32
        back = quantize.dequantize_int8(codes, scales)
        assert back.dtype == np.float32
        err = np.abs(back.astype(np.float64) - slab)
        assert (err <= scales[:, None].astype(np.float64) / 2 + 1e-6).all()

    def test_int8_zero_rows(self):
        slab = np.zeros((4, 8))
        codes, scales = quantize.quantize_int8(slab)
        np.testing.assert_array_equal(quantize.dequantize_int8(codes, scales), 0.0)

    def test_filenames_and_factor(self):
        assert quantize.quantized_filenames(2, "fp16") == ["entities.bucket2.f16.npy"]
        assert quantize.quantized_filenames(0, "int8") == [
            "entities.bucket0.i8.npy", "entities.bucket0.i8.scale.npy"]
        assert quantize.compression_factor("fp16") == 4
        assert quantize.compression_factor("int8") == 2
        with pytest.raises(ValueError):
            quantize.check_mode("int4")


class TestArtifactLayout:
    def test_quantize_writes_twins(self, artifact):
        _, path = artifact
        entry = quantize_artifact(path, "int8")
        weights = os.path.join(path, "weights")
        for k in range(3):
            assert os.path.exists(os.path.join(weights, f"entities.bucket{k}.npy"))
            assert os.path.exists(os.path.join(weights, f"entities.bucket{k}.i8.npy"))
            assert os.path.exists(
                os.path.join(weights, f"entities.bucket{k}.i8.scale.npy"))
        with open(os.path.join(weights, PARTITION_MANIFEST)) as handle:
            manifest = json.load(handle)
        assert manifest["quantized"] == entry
        assert entry["mode"] == "int8" and len(entry["buckets"]) == 3

    def test_quantize_requires_partitioned_model(self, tmp_path):
        dense = SpTransE(20, 3, 4, rng=0)
        save_checkpoint(str(tmp_path / "checkpoint.npz"), dense)
        with pytest.raises(FileNotFoundError, match="partitioned"):
            quantize_artifact(str(tmp_path), "fp16")

    def test_disk_bytes_shrink(self, artifact):
        _, path = artifact
        quantize_artifact(path, "int8")
        weights = os.path.join(path, "weights")
        exact = os.path.getsize(os.path.join(weights, "entities.bucket0.npy"))
        codes = os.path.getsize(os.path.join(weights, "entities.bucket0.i8.npy"))
        assert codes < exact / 4  # int8 codes are 1/8 the float64 payload


class TestQuantizedAttach:
    def test_slab_dtype_and_resident_bytes(self, artifact):
        _, path = artifact
        ref = load_model(path)  # attached before the twins exist
        quantize_artifact(path, "int8")
        q = load_model(path)
        assert ref.embeddings.slab_dtype == np.float64
        assert q.embeddings.slab_dtype == np.float32
        assert q.embeddings.quantized == "int8"
        rows_ref = ref.embeddings.read_rows(np.arange(40))
        rows_q = q.embeddings.read_rows(np.arange(40))
        assert rows_q.dtype == np.float32  # no silent upcast
        # Same bucket resident on both tables: quantized costs half the bytes.
        assert q.embeddings.bucket_parameters()[0].nbytes * 2 == \
            ref.embeddings.bucket_parameters()[0].nbytes
        np.testing.assert_allclose(rows_q, rows_ref, atol=0.02)

    def test_max_resident_auto_scales(self, artifact):
        _, path = artifact
        quantize_artifact(path, "fp16")
        q = load_model(path)
        # base max_resident 2 × factor 4, capped at 3 partitions
        assert q.embeddings.max_resident == 3
        assert q.embeddings.slab_dtype == np.float16

    def test_exact_rows_match_float64_originals(self, artifact):
        _, path = artifact
        ref = load_model(path)
        quantize_artifact(path, "int8")
        q = load_model(path)
        idx = np.array([0, 55, 119, 3])
        np.testing.assert_array_equal(q.embeddings.exact_rows(idx),
                                      ref.embeddings.read_rows(idx))
        assert q.embeddings.stats()["exact_row_reads"] == idx.size

    def test_missing_twin_raises(self, artifact):
        _, path = artifact
        quantize_artifact(path, "int8")
        os.remove(os.path.join(path, "weights", "entities.bucket1.i8.npy"))
        with pytest.raises(FileNotFoundError, match="entities.bucket1.i8.npy"):
            load_model(path)

    def test_unquantized_artifact_is_full_precision(self, artifact):
        _, path = artifact
        q = load_model(path)
        assert q.embeddings.quantized is None
        assert q.embeddings.slab_dtype == np.float64


class TestRankParity:
    @pytest.mark.parametrize("mode", ["fp16", "int8"])
    def test_topk_ranks_identical_after_rescore(self, artifact, mode):
        _, path = artifact
        ref_engine = InferenceEngine(load_model(path))
        quantize_artifact(path, mode)
        q_engine = InferenceEngine(load_model(path))
        for anchor, rel in [(0, 0), (17, 2), (119, 4), (58, 1)]:
            a = ref_engine.top_k_tails(anchor, rel, k=10)
            b = q_engine.top_k_tails(anchor, rel, k=10)
            assert a.entities == b.entities
            np.testing.assert_allclose(a.scores, b.scores, rtol=1e-12, atol=1e-12)
            a = ref_engine.top_k_heads(rel, anchor, k=10)
            b = q_engine.top_k_heads(rel, anchor, k=10)
            assert a.entities == b.entities
        assert q_engine.stats()["rescored_queries"] > 0
        assert q_engine.stats()["quantized"] == mode
        assert ref_engine.stats()["rescored_queries"] == 0

    @pytest.mark.parametrize("model_cls", [SpTorusE, SpTransH, SpTransR],
                             ids=lambda cls: cls.__name__)
    def test_models_without_an_l2_query_vector_serve_coarse_ranks(
            self, tmp_path, model_cls):
        """Torus and projected geometries have no exact rescore: their int8
        twins serve the quantized ranking, and ``stats()`` says so."""
        model = model_cls(120, 5, 12, partitions=3, rng=7)
        path = str(tmp_path / "artifact")
        os.makedirs(path)
        save_checkpoint(os.path.join(path, "checkpoint.npz"), model)
        quantize_artifact(path, "int8")
        q_engine = InferenceEngine(load_model(path))
        for anchor, rel in [(0, 0), (17, 2), (119, 4)]:
            assert len(q_engine.top_k_tails(anchor, rel, k=10).entities) == 10
            assert len(q_engine.top_k_heads(rel, anchor, k=10).entities) == 10
        assert q_engine.stats()["quantized"] == "int8"
        assert q_engine.stats()["rescored_queries"] == 0

    def test_filtered_queries_keep_parity(self, artifact):
        _, path = artifact
        known = [(0, 0, t) for t in range(15)]
        ref_engine = InferenceEngine(load_model(path), known_triples=known)
        quantize_artifact(path, "int8")
        q_engine = InferenceEngine(load_model(path), known_triples=known)
        a = ref_engine.top_k_tails(0, 0, k=8, filtered=True)
        b = q_engine.top_k_tails(0, 0, k=8, filtered=True)
        assert a.entities == b.entities
        assert not set(a.entities) & set(range(15))

    def test_nearest_entities_parity(self, artifact):
        _, path = artifact
        ref_engine = InferenceEngine(load_model(path))
        quantize_artifact(path, "int8")
        q_engine = InferenceEngine(load_model(path))
        for entity in (3, 64, 119):
            a = ref_engine.nearest_entities(entity, k=5)
            b = q_engine.nearest_entities(entity, k=5)
            assert a.entities == b.entities

    def test_rescore_expansion_validation(self, artifact):
        model, path = artifact
        with pytest.raises(ValueError):
            InferenceEngine(model, rescore_expansion=0)
