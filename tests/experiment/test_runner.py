"""End-to-end tests for the Experiment runner and its artifact directory."""

import json
import os

import numpy as np
import pytest

from repro.experiment import (
    DataSpec,
    EvalSpec,
    Experiment,
    ExperimentSpec,
    load_artifact,
    run_experiment,
)
from repro.models import SpRotatE
from repro.registry import ModelSpec
from repro.serving import InferenceEngine
from repro.training import Trainer, TrainingConfig, load_model
from repro.training.checkpoint import load_checkpoint

#: What RotatE answers when asked for the row-sparse path it does not have.
ROTATE_REFUSAL = "SpRotatE has no row-sparse gradient path"


def tiny_spec(**overrides) -> ExperimentSpec:
    data = DataSpec(dataset="WN18RR", scale=0.001, generator="learnable",
                    valid_fraction=0.2, test_fraction=0.2)
    n_entities, n_relations = data.vocab_sizes()
    base = dict(
        name="runner-test",
        data=data,
        model=ModelSpec(model="transe", formulation="sparse",
                        n_entities=n_entities, n_relations=n_relations,
                        embedding_dim=8),
        training=TrainingConfig(epochs=2, batch_size=64, learning_rate=0.01),
        eval=EvalSpec(ks=(1, 10)),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def _params(model) -> dict:
    """``{qualified name: values}`` of every parameter of ``model``."""
    return {name: param.data for name, param in model.named_parameters()}


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """One artifact-producing run shared by the read-only assertions."""
    artifact_dir = str(tmp_path_factory.mktemp("artifacts") / "run")
    spec = tiny_spec(eval=EvalSpec(
        protocols=("link_prediction", "classification", "relation_categories"),
        ks=(1, 10)))
    result = run_experiment(spec, artifact_dir=artifact_dir)
    return spec, artifact_dir, result


class TestRun:
    def test_artifact_directory_layout(self, finished_run):
        _, artifact_dir, _ = finished_run
        names = sorted(os.listdir(artifact_dir))
        assert names == ["checkpoint.npz", "environment.json", "history.json",
                         "metrics.json", "spec.json", "weights"]

    def test_spec_json_round_trips(self, finished_run):
        spec, artifact_dir, _ = finished_run
        assert ExperimentSpec.from_file(os.path.join(artifact_dir, "spec.json")) == spec

    def test_metrics_json_matches_in_memory_result(self, finished_run):
        _, artifact_dir, result = finished_run
        with open(os.path.join(artifact_dir, "metrics.json")) as handle:
            on_disk = json.load(handle)
        in_memory = json.loads(json.dumps(result.metrics, default=float))
        assert on_disk == in_memory
        assert set(on_disk["evaluations"]) == {"link_prediction", "classification",
                                               "relation_categories"}

    def test_history_tracks_every_epoch(self, finished_run):
        spec, artifact_dir, _ = finished_run
        with open(os.path.join(artifact_dir, "history.json")) as handle:
            history = json.load(handle)
        assert len(history["losses"]) == spec.training.epochs
        assert len(history["epochs"]) == spec.training.epochs
        assert {"forward_s", "backward_s", "step_s"} <= set(history["epochs"][0])

    def test_environment_record(self, finished_run):
        spec, artifact_dir, _ = finished_run
        with open(os.path.join(artifact_dir, "environment.json")) as handle:
            env = json.load(handle)
        assert env["experiment"] == spec.name
        assert env["seed"] == spec.seed
        assert "numpy" in env and "python" in env

    def test_load_model_warm_loads_artifact_dir(self, finished_run):
        _, artifact_dir, result = finished_run
        reloaded = load_model(artifact_dir)
        assert type(reloaded) is type(result.model)
        for name, value in _params(result.model).items():
            np.testing.assert_array_equal(_params(reloaded)[name], value)

    def test_reloaded_model_reproduces_metrics_json(self, finished_run):
        """The acceptance criterion: artifact → reload → same eval metrics."""
        spec, artifact_dir, _ = finished_run
        artifact = load_artifact(artifact_dir)
        model = artifact.load_model()
        dataset = spec.data.materialize()
        for evaluator in spec.eval.build_evaluators(seed=spec.seed):
            report = evaluator.run(model, dataset)
            recorded = artifact.metrics["evaluations"][evaluator.protocol]
            assert json.loads(json.dumps(report.to_dict(), default=float)) == recorded

    def test_inference_engine_from_artifact(self, finished_run):
        spec, artifact_dir, result = finished_run
        engine = InferenceEngine.from_artifact(artifact_dir, filtered=True)
        answer = engine.top_k_tails(1, 0, k=3, filtered=True)
        assert len(answer.entities) <= 3
        # filtered answers exclude the run's own known positives
        dataset = spec.data.materialize()
        known = {t for h, r, t in dataset.known_triples() if (h, r) == (1, 0)}
        assert not (set(answer.entities) & known)

    def test_checkpoint_metadata_records_training_config(self, finished_run):
        spec, artifact_dir, _ = finished_run
        checkpoint = load_checkpoint(artifact_dir)
        assert checkpoint.metadata["experiment"] == spec.name
        restored = TrainingConfig.from_dict(checkpoint.metadata["training_config"])
        assert restored == spec.training


class TestRunnerBehaviour:
    def test_same_spec_same_seed_is_reproducible(self):
        spec = tiny_spec(eval=EvalSpec(protocols=()))
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert a.training.losses == b.training.losses
        for name, value in _params(a.model).items():
            np.testing.assert_array_equal(_params(b.model)[name], value)

    def test_different_seed_changes_model(self):
        base = tiny_spec(eval=EvalSpec(protocols=()))
        a = run_experiment(base)
        b = run_experiment(base.replace(seed=1))
        assert any(not np.array_equal(_params(a.model)[k], _params(b.model)[k])
                   for k in _params(a.model))

    def test_infeasible_eval_fails_before_training(self):
        data = DataSpec(dataset="WN18RR", scale=0.001, valid_fraction=0.0,
                        test_fraction=0.2)
        spec = tiny_spec(data=data,
                         eval=EvalSpec(protocols=("classification",)))
        with pytest.raises(ValueError, match="non-empty 'valid' split"):
            run_experiment(spec)

    def test_num_negatives_tiles_training_split(self):
        spec = tiny_spec(eval=EvalSpec(protocols=()))
        multi = spec.replace(
            data=DataSpec(dataset="WN18RR", scale=0.001, generator="learnable",
                          valid_fraction=0.2, test_fraction=0.2, num_negatives=3))
        experiment = Experiment(multi)
        dataset = multi.data.materialize()
        tiled = experiment._training_dataset(dataset)
        assert tiled.n_triples == 3 * dataset.n_triples
        assert tiled.n_entities == dataset.n_entities
        result = experiment.run()
        assert np.isfinite(result.training.final_loss)

    def test_bernoulli_sampler_path(self):
        spec = tiny_spec(
            data=DataSpec(dataset="WN18RR", scale=0.001, generator="learnable",
                          valid_fraction=0.2, test_fraction=0.2,
                          negative_sampler="bernoulli"),
            eval=EvalSpec(protocols=()))
        assert np.isfinite(run_experiment(spec).training.final_loss)

    def test_resume_from_artifact_reduces_epoch_budget(self, tmp_path):
        artifact = str(tmp_path / "first")
        spec = tiny_spec(eval=EvalSpec(protocols=()),
                         training=TrainingConfig(epochs=2, batch_size=64,
                                                 learning_rate=0.01))
        run_experiment(spec, artifact_dir=artifact)
        resumed = Experiment(spec.replace(training=spec.training.replace(epochs=3)),
                             resume=artifact).run()
        assert len(resumed.training.epochs) == 1  # 3 total - 2 already done

    def test_resume_rejects_optimizer_mismatch(self, tmp_path):
        artifact = str(tmp_path / "first")
        spec = tiny_spec(eval=EvalSpec(protocols=()))
        run_experiment(spec, artifact_dir=artifact)
        clash = spec.replace(training=spec.training.replace(optimizer="sgd"))
        with pytest.raises(ValueError, match="cannot resume"):
            Experiment(clash, resume=artifact).run()

    def test_report_lookup(self):
        result = run_experiment(tiny_spec())
        assert result.report("link_prediction").protocol == "link_prediction"
        with pytest.raises(KeyError):
            result.report("classification")

    def test_load_artifact_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_artifact(str(tmp_path / "nope"))

    def test_premateralized_dataset_is_used_verbatim(self):
        spec = tiny_spec(eval=EvalSpec(protocols=()))
        dataset = spec.data.materialize()
        result = Experiment(spec, dataset=dataset).run()
        assert result.dataset is dataset

    def test_artifact_dir_reloads_without_eval(self, tmp_path):
        artifact = str(tmp_path / "run")
        spec = tiny_spec(eval=EvalSpec(protocols=()))
        Experiment(spec, artifact_dir=artifact).run()
        reloaded = load_model(artifact)
        assert reloaded.n_entities == spec.model.n_entities


def rewrite_as_older_release(artifact_dir: str) -> None:
    """Give an artifact the layout releases before ``model_class`` wrote.

    Those releases set the gradient switch in the model section of
    ``spec.json`` and of the checkpoint's ``model_spec`` as well as under
    ``training``, and named the class inside a ``model_config`` summary.
    """
    spec_path = os.path.join(artifact_dir, "spec.json")
    with open(spec_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["model"]["sparse_grads"] = True
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)

    checkpoint_path = os.path.join(artifact_dir, "checkpoint.npz")
    data = dict(np.load(checkpoint_path, allow_pickle=False))
    metadata = json.loads(bytes(data["metadata"]).decode("utf-8"))
    spec = metadata["model_spec"]
    metadata["model_config"] = {
        "model": metadata.pop("model_class"), "n_entities": spec["n_entities"],
        "n_relations": spec["n_relations"], "embedding_dim": spec["embedding_dim"],
        "dissimilarity": spec["dissimilarity"], "backend": spec["backend"],
        "formulation": "hrt-spmm"}
    spec["sparse_grads"] = True
    data["metadata"] = np.frombuffer(json.dumps(metadata).encode("utf-8"),
                                     dtype=np.uint8)
    np.savez(checkpoint_path, **data)


class TestOneGradientSwitch:
    def test_legacy_model_flag_trains_row_sparse(self, tmp_path):
        """A spec with ``model.sparse_grads: true`` and ``training.sparse_grads:
        false`` trains exactly as the training switch alone would, and its
        artifact carries the flag only under ``training``."""
        spec = tiny_spec(eval=EvalSpec(protocols=()),
                         training=TrainingConfig(epochs=2, batch_size=16,
                                                 learning_rate=0.01))
        payload = spec.to_dict()
        payload["model"]["sparse_grads"] = True
        payload["training"]["sparse_grads"] = False
        artifact = str(tmp_path / "run")
        legacy = run_experiment(ExperimentSpec.from_dict(payload),
                                artifact_dir=artifact)

        sparse = run_experiment(spec.replace(
            training=spec.training.replace(sparse_grads=True)))
        dense = run_experiment(spec)
        # Lazy Adam (row-sparse) and dense Adam part ways from the second step.
        weights = [run.model.embeddings.weight.data
                   for run in (legacy, sparse, dense)]
        np.testing.assert_array_equal(weights[0], weights[1])
        assert not np.array_equal(weights[0], weights[2])
        with open(os.path.join(artifact, "spec.json"), encoding="utf-8") as fh:
            written = json.load(fh)
        assert "sparse_grads" not in written["model"]
        assert written["training"]["sparse_grads"] is True

    def test_rotate_refuses_the_row_sparse_path_before_any_step(self, tmp_path):
        base = tiny_spec()
        spec = base.replace(
            model=base.model.replace(model="rotate"),
            training=TrainingConfig(epochs=1, batch_size=64, sparse_grads=True),
            eval=EvalSpec(protocols=()))
        artifact = tmp_path / "run"
        with pytest.raises(ValueError, match=ROTATE_REFUSAL):
            Experiment(spec, artifact_dir=str(artifact)).run()
        assert not (artifact / "checkpoint.npz").exists()

        kg = spec.data.materialize()
        model = SpRotatE(kg.n_entities, kg.n_relations, 8, rng=0)
        with pytest.raises(ValueError, match=ROTATE_REFUSAL):
            Trainer(model, kg, TrainingConfig(epochs=1, sparse_grads=True))
        assert model.sparse_grads is False
        dense = Trainer(model, kg, TrainingConfig(epochs=1, batch_size=64)).train()
        assert np.isfinite(dense.final_loss)


class TestOlderReleaseArtifact:
    def test_restores_and_resumes(self, tmp_path):
        artifact = str(tmp_path / "old")
        spec = tiny_spec(eval=EvalSpec(protocols=()),
                         training=TrainingConfig(epochs=2, batch_size=64,
                                                 learning_rate=0.01,
                                                 sparse_grads=True))
        first = run_experiment(spec, artifact_dir=artifact)
        rewrite_as_older_release(artifact)
        assert "model_class" not in load_checkpoint(artifact).metadata

        restored = load_model(artifact)
        np.testing.assert_array_equal(restored.embeddings.weight.data,
                                      first.model.embeddings.weight.data)
        stored = ExperimentSpec.from_file(os.path.join(artifact, "spec.json"))
        assert stored == spec
        resumed = Experiment(stored.replace(
            training=stored.training.replace(epochs=3)), resume=artifact).run()
        assert len(resumed.training.epochs) == 1
