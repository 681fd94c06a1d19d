"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_declared_console_script_resolves_to_the_cli_entry_point():
    """``pyproject.toml`` is what makes ``sptransx`` a command after install."""
    import importlib
    import os

    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
        project = tomllib.load(handle)["project"]
    module_name, _, attribute = project["scripts"]["sptransx"].partition(":")
    assert getattr(importlib.import_module(module_name), attribute) is main
    assert {"numpy", "scipy"} <= set(project["dependencies"])


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.model == "transe"
        assert args.formulation == "sparse"
        assert args.dataset == "FB15K"

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model", "kg2e"])


class TestInfoCommand:
    def test_lists_catalog_and_backends(self, capsys):
        code, out = run_cli(capsys, "info")
        assert code == 0
        payload = json.loads(out)
        assert "FB15K" in payload["datasets"]
        assert payload["datasets"]["FB15K"]["entities"] == 14951
        assert "transe" in payload["sparse_models"]
        assert "scipy" in payload["spmm_backends"]


class TestTrainCommand:
    def test_train_synthetic_and_checkpoint(self, capsys, tmp_path):
        ckpt = str(tmp_path / "model.npz")
        code, out = run_cli(
            capsys, "train", "--dataset", "WN18RR", "--scale", "0.003",
            "--model", "transe", "--epochs", "2", "--batch-size", "256",
            "--dim", "16", "--learning-rate", "0.01", "--checkpoint", ckpt,
            "--quiet",
        )
        assert code == 0
        assert "final_loss" in out
        assert (tmp_path / "model.npz").exists()

    def test_train_dense_formulation(self, capsys):
        code, out = run_cli(
            capsys, "train", "--dataset", "WN18RR", "--scale", "0.003",
            "--model", "transh", "--formulation", "dense", "--epochs", "1",
            "--batch-size", "256", "--dim", "8", "--quiet",
        )
        assert code == 0
        assert "DenseTransH" in out

    def test_train_from_triples_file_with_eval(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        rows = {(int(h), int(t)) for h, t in rng.integers(0, 20, size=(300, 2)) if h != t}
        path = tmp_path / "kg.csv"
        path.write_text("\n".join(f"e{h},r0,e{t}" for h, t in rows) + "\n")
        code, out = run_cli(
            capsys, "train", "--triples-file", str(path), "--test-fraction", "0.1",
            "--epochs", "2", "--batch-size", "64", "--dim", "8",
            "--learning-rate", "0.05", "--eval", "--quiet",
        )
        assert code == 0
        assert "link_prediction" in out

    def test_dense_only_model_with_sparse_formulation_fails(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--model", "transd", "--formulation", "sparse",
                  "--scale", "0.003", "--epochs", "1", "--quiet"])


class TestExportSpecCommand:
    def test_writes_a_loadable_spec(self, capsys, tmp_path):
        from repro.experiment import ExperimentSpec

        path = str(tmp_path / "exp.json")
        code, out = run_cli(
            capsys, "export-spec", "--dataset", "WN18RR", "--scale", "0.003",
            "--model", "transe", "--epochs", "2", "--batch-size", "256",
            "--dim", "16", "--output", path,
        )
        assert code == 0 and path in out
        spec = ExperimentSpec.from_file(path)
        assert spec.model.model == "transe"
        assert spec.training.epochs == 2
        assert spec.name == "transe-wn18rr"
        # the canonical round trip the acceptance criterion names
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_prints_to_stdout_without_output(self, capsys):
        code, out = run_cli(
            capsys, "export-spec", "--dataset", "WN18RR", "--scale", "0.003",
            "--model", "transh", "--formulation", "dense", "--epochs", "1",
            "--dim", "8", "--name", "custom", "--tags", "a", "b",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["name"] == "custom"
        assert payload["tags"] == ["a", "b"]
        assert payload["model"]["formulation"] == "dense"


class TestRunCommand:
    def test_run_spec_end_to_end(self, capsys, tmp_path):
        spec_path = str(tmp_path / "exp.json")
        run_cli(capsys, "export-spec", "--dataset", "WN18RR", "--scale", "0.003",
                "--generator", "learnable", "--test-fraction", "0.1",
                "--model", "transe", "--epochs", "2", "--batch-size", "256",
                "--dim", "16", "--learning-rate", "0.01", "--output", spec_path)
        artifacts = str(tmp_path / "artifacts")
        code, out = run_cli(capsys, "run", spec_path, "--artifacts", artifacts,
                            "--quiet")
        assert code == 0
        payload = json.loads(out)
        assert payload["artifacts"] == artifacts
        assert "link_prediction" in payload["metrics"]["evaluations"]
        assert (tmp_path / "artifacts" / "spec.json").exists()
        assert (tmp_path / "artifacts" / "metrics.json").exists()
        assert (tmp_path / "artifacts" / "checkpoint.npz").exists()

        # the artifact directory doubles as an evaluate/serve checkpoint
        code, out = run_cli(
            capsys, "evaluate", "--checkpoint", artifacts, "--dataset", "WN18RR",
            "--scale", "0.003", "--generator", "learnable",
            "--test-fraction", "0.1", "--ks", "10",
        )
        assert code == 0
        assert "hits@10" in json.loads(out)

    def test_run_storage_and_workers_overrides(self, capsys, tmp_path):
        spec_path = str(tmp_path / "exp.json")
        run_cli(capsys, "export-spec", "--dataset", "WN18RR", "--scale", "0.003",
                "--model", "transe", "--epochs", "1", "--batch-size", "256",
                "--dim", "8", "--sparse-grads", "--output", spec_path)
        spec_payload = json.loads((tmp_path / "exp.json").read_text())
        assert spec_payload["data"]["storage"] == "memory"
        assert spec_payload["training"]["num_workers"] == 1

        artifacts = str(tmp_path / "artifacts")
        code, out = run_cli(capsys, "run", spec_path, "--artifacts", artifacts,
                            "--storage", "sqlite", "--workers", "2", "--quiet")
        assert code == 0
        assert json.loads(out)["metrics"]["epochs_trained"] == 1
        assert (tmp_path / "artifacts" / "data.sqlite").exists()
        assert (tmp_path / "artifacts" / "weights").is_dir()

    def test_run_backend_override_flows_to_model(self, capsys, tmp_path):
        spec_path = str(tmp_path / "exp.json")
        run_cli(capsys, "export-spec", "--dataset", "WN18RR", "--scale", "0.003",
                "--model", "transe", "--epochs", "1", "--batch-size", "256",
                "--dim", "8", "--output", spec_path)
        assert json.loads((tmp_path / "exp.json").read_text())["model"].get(
            "backend") is None

        artifacts = str(tmp_path / "artifacts")
        code, out = run_cli(capsys, "run", spec_path, "--artifacts", artifacts,
                            "--backend", "numpy", "--quiet")
        assert code == 0
        assert json.loads(out)["model"]["backend"] == "numpy"

        # The backend round-trips through the artifact's checkpointed spec.
        from repro.training.checkpoint import load_model

        restored = load_model(artifacts)
        assert restored.backend == "numpy"

    def test_run_rejects_unknown_backend(self, capsys, tmp_path):
        spec_path = str(tmp_path / "exp.json")
        run_cli(capsys, "export-spec", "--dataset", "WN18RR", "--scale", "0.003",
                "--model", "transe", "--epochs", "1", "--batch-size", "256",
                "--dim", "8", "--output", spec_path)
        with pytest.raises(SystemExit) as excinfo:
            run_cli(capsys, "run", spec_path, "--artifacts",
                    str(tmp_path / "artifacts"), "--backend", "fused", "--quiet")
        message = str(excinfo.value.code)
        assert "unknown SpMM backend 'fused'" in message
        assert "numpy" in message and "scipy" in message

    def test_run_quantize_writes_quantized_artifact(self, capsys, tmp_path):
        spec_path = str(tmp_path / "exp.json")
        run_cli(capsys, "export-spec", "--dataset", "WN18RR", "--scale", "0.003",
                "--model", "transe", "--epochs", "1", "--batch-size", "256",
                "--dim", "8", "--output", spec_path)
        artifacts = str(tmp_path / "artifacts")
        code, out = run_cli(capsys, "run", spec_path, "--artifacts", artifacts,
                            "--partitions", "2", "--quantize", "int8", "--quiet")
        assert code == 0
        assert json.loads(out)["quantized"] == "int8"
        weights = tmp_path / "artifacts" / "weights"
        assert (weights / "entities.bucket0.i8.npy").exists()
        assert (weights / "entities.bucket0.i8.scale.npy").exists()
        manifest = json.loads((weights / "partition.json").read_text())
        assert manifest["quantized"]["mode"] == "int8"

    def test_run_quantize_rejects_unpartitioned_model(self, capsys, tmp_path):
        spec_path = str(tmp_path / "exp.json")
        run_cli(capsys, "export-spec", "--dataset", "WN18RR", "--scale", "0.003",
                "--model", "transe", "--epochs", "1", "--batch-size", "256",
                "--dim", "8", "--output", spec_path)
        with pytest.raises(SystemExit):
            main(["run", spec_path, "--artifacts", str(tmp_path / "a"),
                  "--quantize", "fp16", "--quiet"])

    def test_train_accepts_storage_and_workers_flags(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "model.npz")
        code, out = run_cli(capsys, "train", "--dataset", "WN18RR", "--scale",
                            "0.003", "--model", "transe", "--epochs", "1",
                            "--batch-size", "256", "--dim", "8",
                            "--storage", "sqlite", "--storage-path",
                            str(tmp_path / "kg.sqlite"), "--workers", "2",
                            "--sparse-grads", "--checkpoint", checkpoint)
        assert code == 0
        assert (tmp_path / "kg.sqlite").exists()
        summary = json.loads(out[:out.rindex("}") + 1])
        assert np.isfinite(summary["final_loss"])

    def test_run_missing_spec_fails(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="cannot load"):
            main(["run", str(tmp_path / "nope.json")])

    def test_run_invalid_spec_fails(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"model": "transe"},
                                    "trainnig": {}}))
        with pytest.raises(SystemExit, match="trainnig"):
            main(["run", str(path)])


class TestEvaluateCommand:
    def test_train_then_evaluate_checkpoint(self, capsys, tmp_path):
        ckpt = str(tmp_path / "m.npz")
        code, _ = run_cli(
            capsys, "train", "--dataset", "WN18RR", "--scale", "0.003",
            "--model", "transe", "--epochs", "2", "--batch-size", "256",
            "--dim", "16", "--checkpoint", ckpt, "--quiet",
        )
        assert code == 0
        code, out = run_cli(
            capsys, "evaluate", "--checkpoint", ckpt, "--dataset", "WN18RR",
            "--scale", "0.003", "--test-fraction", "0.1", "--ks", "1", "10",
        )
        assert code == 0
        payload = json.loads(out)
        assert "hits@10" in payload
        assert 0.0 <= payload["hits@10"] <= 1.0

    def test_evaluate_empty_split_fails(self, capsys, tmp_path):
        ckpt = str(tmp_path / "m.npz")
        run_cli(capsys, "train", "--dataset", "WN18RR", "--scale", "0.003",
                "--model", "transe", "--epochs", "1", "--batch-size", "256",
                "--dim", "8", "--checkpoint", ckpt, "--quiet")
        with pytest.raises(SystemExit):
            main(["evaluate", "--checkpoint", ckpt, "--dataset", "WN18RR",
                  "--scale", "0.003", "--test-fraction", "0", "--split", "valid"])


class TestServeCommand:
    """Both tiers build their engine through one factory, so a filtered
    ``serve`` over a dataset whose vocabulary is not the checkpoint's is
    refused by both, with one message, before a port is bound or a worker
    forked."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        from repro.registry import ModelSpec, build_model
        from repro.training.checkpoint import save_checkpoint

        path = str(tmp_path_factory.mktemp("serve") / "m.npz")
        save_checkpoint(path, build_model(
            ModelSpec(model="transe", formulation="sparse", n_entities=30,
                      n_relations=4, embedding_dim=8), rng=0))
        return path

    @pytest.mark.parametrize("workers", ["0", "2"], ids=["threaded", "pool"])
    def test_filtered_serve_refuses_a_mismatched_dataset(self, checkpoint, workers):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--checkpoint", checkpoint, "--filtered",
                  "--dataset", "WN18RR", "--scale", "0.003", "--port", "0",
                  "--workers", workers])
        assert str(excinfo.value).startswith("dataset vocabulary (")
        assert str(excinfo.value).endswith(
            "does not match the checkpoint (30, 4); filtered serving needs "
            "the training data")
