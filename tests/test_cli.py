"""Tests for the command-line interface."""

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def export_and_run(capsys, tmp_path, *export_argv):
    """``export-spec`` then ``run``: returns the artifact directory and the
    run's printed summary."""
    spec_path = str(tmp_path / "exp.json")
    run_cli(capsys, "export-spec", *export_argv, "--output", spec_path)
    artifacts = str(tmp_path / "artifacts")
    code, out = run_cli(capsys, "run", spec_path, "--artifacts", artifacts,
                        "--quiet")
    assert code == 0
    return artifacts, json.loads(out)


def recorded_link_prediction(artifacts):
    """The link-prediction numbers ``run`` wrote into ``metrics.json``."""
    with open(os.path.join(artifacts, "metrics.json"), encoding="utf-8") as handle:
        return json.load(handle)["evaluations"]["link_prediction"]["metrics"]


def save_bare_checkpoint(path):
    from repro.registry import ModelSpec, build_model
    from repro.training.checkpoint import save_checkpoint

    return save_checkpoint(path, build_model(
        ModelSpec(model="transe", formulation="sparse", n_entities=30,
                  n_relations=4, embedding_dim=8), rng=0))


def test_declared_console_script_resolves_to_the_cli_entry_point():
    """``pyproject.toml`` is what makes ``sptransx`` a command after install."""
    import importlib

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

    def test_export_spec_defaults(self):
        args = build_parser().parse_args(["export-spec"])
        assert args.model == "transe"
        assert args.formulation == "sparse"
        assert args.dataset == "FB15K"

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export-spec", "--model", "kg2e"])

    def test_train_command_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train"])

    @pytest.mark.parametrize("command", [["run", "exp.json"], ["export-spec"]])
    def test_training_commands_take_no_workers_flag(self, capsys, command):
        # Training runs in one process: the flag is gone, not ignored.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*command, "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_serve_keeps_its_pool_workers_flag(self):
        args = build_parser().parse_args(["serve", "--checkpoint", "a",
                                          "--workers", "3"])
        assert args.workers == 3

    def test_evaluate_and_serve_take_no_data_flags(self):
        """The artifact's spec.json names its data; nothing is typed twice."""
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))

        def options(command):
            return {opt for action in sub.choices[command]._actions
                    for opt in action.option_strings if opt not in ("-h", "--help")}

        assert options("evaluate") == {"--checkpoint", "--ks", "--split"}
        assert len(options("serve")) == 13
        assert not options("serve") & {"--dataset", "--scale", "--triples-file",
                                       "--data-seed", "--storage"}


class TestInfoCommand:
    def test_lists_catalog_and_backends(self, capsys):
        code, out = run_cli(capsys, "info")
        assert code == 0
        payload = json.loads(out)
        assert "FB15K" in payload["datasets"]
        assert payload["datasets"]["FB15K"]["entities"] == 14951
        assert "transe" in payload["sparse_models"]
        assert "scipy" in payload["spmm_backends"]


class TestExportThenRun:
    def test_synthetic_run_writes_a_checkpointed_artifact(self, capsys, tmp_path):
        _, summary = export_and_run(
            capsys, tmp_path, "--dataset", "WN18RR", "--scale", "0.003",
            "--model", "transe", "--epochs", "2", "--batch-size", "256",
            "--dim", "16", "--learning-rate", "0.01")
        assert np.isfinite(summary["metrics"]["final_loss"])
        assert (tmp_path / "artifacts" / "checkpoint.npz").exists()

    def test_dense_formulation(self, capsys, tmp_path):
        _, summary = export_and_run(
            capsys, tmp_path, "--dataset", "WN18RR", "--scale", "0.003",
            "--model", "transh", "--formulation", "dense", "--epochs", "1",
            "--batch-size", "256", "--dim", "8")
        assert summary["model"]["model"] == "transh"
        assert summary["model"]["formulation"] == "dense"
        assert summary["model"]["embedding_dim"] == 8

    def test_triples_file_run_then_evaluate(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        rows = {(int(h), int(t)) for h, t in rng.integers(0, 20, size=(300, 2)) if h != t}
        path = tmp_path / "kg.csv"
        path.write_text("\n".join(f"e{h},r0,e{t}" for h, t in rows) + "\n")
        artifacts, summary = export_and_run(
            capsys, tmp_path, "--triples-file", str(path), "--test-fraction",
            "0.1", "--epochs", "2", "--batch-size", "64", "--dim", "8",
            "--learning-rate", "0.05")
        assert "link_prediction" in summary["metrics"]["evaluations"]
        code, out = run_cli(capsys, "evaluate", "--checkpoint", artifacts)
        assert code == 0
        assert json.loads(out) == recorded_link_prediction(artifacts)

    def test_dense_only_model_with_sparse_formulation_fails(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            export_and_run(capsys, tmp_path, "--model", "transd",
                           "--formulation", "sparse", "--scale", "0.003",
                           "--epochs", "1")

    def test_export_storage_flags_reach_the_run(self, capsys, tmp_path):
        _, summary = export_and_run(
            capsys, tmp_path, "--dataset", "WN18RR", "--scale", "0.003",
            "--model", "transe", "--epochs", "1", "--batch-size", "256",
            "--dim", "8", "--storage", "sqlite", "--storage-path",
            str(tmp_path / "kg.sqlite"), "--sparse-grads")
        assert (tmp_path / "kg.sqlite").exists()
        assert np.isfinite(summary["metrics"]["final_loss"])


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

        # the artifact directory is what evaluate and serve read
        code, out = run_cli(capsys, "evaluate", "--checkpoint", artifacts,
                            "--ks", "10")
        assert code == 0
        assert "hits@10" in json.loads(out)

    def test_run_storage_override(self, capsys, tmp_path):
        spec_path = str(tmp_path / "exp.json")
        run_cli(capsys, "export-spec", "--dataset", "WN18RR", "--scale", "0.003",
                "--model", "transe", "--epochs", "1", "--batch-size", "256",
                "--dim", "8", "--sparse-grads", "--output", spec_path)
        spec_payload = json.loads((tmp_path / "exp.json").read_text())
        assert spec_payload["data"]["storage"] == "memory"
        assert "num_workers" not in spec_payload["training"]

        artifacts = str(tmp_path / "artifacts")
        code, out = run_cli(capsys, "run", spec_path, "--artifacts", artifacts,
                            "--storage", "sqlite", "--quiet")
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

    def test_run_has_no_quantize_option(self, capsys, tmp_path):
        # Served tables are float64 only: the flag is gone, not ignored.
        spec_path = str(tmp_path / "exp.json")
        run_cli(capsys, "export-spec", "--dataset", "WN18RR", "--scale", "0.003",
                "--model", "transe", "--epochs", "1", "--batch-size", "256",
                "--dim", "8", "--output", spec_path)
        artifacts = tmp_path / "a"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", spec_path, "--artifacts", str(artifacts),
                  "--partitions", "2", "--quantize", "int8", "--quiet"])
        assert excinfo.value.code == 2
        assert "--quantize" in capsys.readouterr().err
        assert not (artifacts / "checkpoint.npz").exists()

    def test_run_unknown_ann_kind_fails_before_training(self, capsys, tmp_path):
        spec_path = tmp_path / "exp.json"
        run_cli(capsys, "export-spec", "--dataset", "WN18RR", "--scale", "0.003",
                "--model", "transe", "--epochs", "1", "--batch-size", "256",
                "--dim", "8", "--output", str(spec_path))
        payload = json.loads(spec_path.read_text())
        payload["model"]["ann"] = "hnsw"
        spec_path.write_text(json.dumps(payload))
        artifacts = tmp_path / "a"
        with pytest.raises(SystemExit, match="unknown ANN index kind 'hnsw'"):
            main(["run", str(spec_path), "--artifacts", str(artifacts), "--quiet"])
        assert not (artifacts / "checkpoint.npz").exists()

    @pytest.mark.parametrize("section, key", [("training", "sparse_grads"),
                                              ("eval", "filtered")])
    def test_run_string_boolean_fails_before_training(self, capsys, tmp_path,
                                                      section, key):
        spec_path = tmp_path / "exp.json"
        run_cli(capsys, "export-spec", "--dataset", "WN18RR", "--scale", "0.003",
                "--model", "transe", "--epochs", "1", "--batch-size", "256",
                "--dim", "8", "--output", str(spec_path))
        payload = json.loads(spec_path.read_text())
        payload[section][key] = "false"
        spec_path.write_text(json.dumps(payload))
        artifacts = tmp_path / "a"
        with pytest.raises(SystemExit, match=f"{section} section key '{key}'"):
            main(["run", str(spec_path), "--artifacts", str(artifacts), "--quiet"])
        assert not (artifacts / "checkpoint.npz").exists()

    def test_run_ann_on_unpartitioned_spec_writes_a_servable_artifact(
            self, capsys, tmp_path):
        from repro.serving import InferenceEngine

        spec_path = str(tmp_path / "exp.json")
        run_cli(capsys, "export-spec", "--dataset", "WN18RR", "--scale", "0.003",
                "--model", "transe", "--epochs", "1", "--batch-size", "256",
                "--dim", "8", "--output", spec_path)
        artifacts = str(tmp_path / "artifacts")
        code, _ = run_cli(capsys, "run", spec_path, "--artifacts", artifacts,
                          "--ann", "ivf", "--quiet")
        assert code == 0
        for name in ("spec.json", "metrics.json", "checkpoint.npz",
                     os.path.join("index", "index.json")):
            assert os.path.exists(os.path.join(artifacts, name)), name
        with InferenceEngine.from_artifact(artifacts, cache_size=0) as engine:
            assert engine.ann_index is not None
            assert len(engine.top_k_tails(0, 0, k=5).entities) == 5
            assert engine.stats()["ann_queries"] == 1

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
    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("evaluate")
        spec_path = str(directory / "exp.json")
        main(["export-spec", "--dataset", "WN18RR", "--scale", "0.003",
              "--generator", "learnable", "--test-fraction", "0.1",
              "--model", "transe", "--epochs", "2", "--batch-size", "256",
              "--dim", "16", "--learning-rate", "0.01", "--output", spec_path])
        with open(spec_path, encoding="utf-8") as handle:
            spec = json.load(handle)
        spec["eval"]["ks"] = [2, 5]  # not evaluate's own cutoffs
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        artifacts = str(directory / "artifacts")
        main(["run", spec_path, "--artifacts", artifacts, "--quiet"])
        return artifacts

    def test_prints_the_recorded_metrics_with_no_flags(self, capsys, artifact):
        capsys.readouterr()
        code, out = run_cli(capsys, "evaluate", "--checkpoint", artifact)
        assert code == 0
        payload = json.loads(out)
        assert payload == recorded_link_prediction(artifact)
        assert {"hits@2", "hits@5"} <= set(payload)

    def test_ks_and_split_select_what_is_ranked(self, capsys, artifact):
        capsys.readouterr()
        code, out = run_cli(capsys, "evaluate", "--checkpoint", artifact,
                            "--ks", "1", "10", "--split", "train")
        assert code == 0
        payload = json.loads(out)
        assert {"hits@1", "hits@10"} <= set(payload)
        assert "hits@5" not in payload

    def test_empty_split_fails(self, artifact):
        with pytest.raises(SystemExit, match="valid"):
            main(["evaluate", "--checkpoint", artifact, "--split", "valid"])

    def test_bare_checkpoint_is_refused(self, tmp_path):
        path = save_bare_checkpoint(str(tmp_path / "m.npz"))
        with pytest.raises(SystemExit, match="not an artifact directory"):
            main(["evaluate", "--checkpoint", path])


class TestLeftoverQuantizedArtifact:
    """An artifact whose ``partition.json`` still names int8 or fp16 twins,
    whether or not the twin files are beside its buckets, is served and
    evaluated from its float64 bucket files, exactly as the same artifact
    without the entry."""

    TWIN_NAMES = {"int8": ("entities.bucket{}.i8.npy", "entities.bucket{}.i8.scale.npy"),
                  "fp16": ("entities.bucket{}.f16.npy",)}

    @pytest.fixture(scope="class")
    def plain(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("leftover")
        spec_path = str(directory / "exp.json")
        main(["export-spec", "--dataset", "WN18RR", "--scale", "0.003",
              "--generator", "learnable", "--test-fraction", "0.1",
              "--model", "transe", "--epochs", "2", "--batch-size", "256",
              "--dim", "8", "--learning-rate", "0.01", "--output", spec_path])
        plain = str(directory / "plain")
        main(["run", spec_path, "--artifacts", plain, "--partitions", "3",
              "--ann", "ivf", "--quiet"])
        return plain

    @pytest.fixture(scope="class",
                    params=[("int8", True), ("int8", False), ("fp16", True),
                            ("fp16", False)],
                    ids=["int8-twins", "int8-no-twins", "fp16-twins",
                         "fp16-no-twins"])
    def artifacts(self, request, plain, tmp_path_factory):
        mode, write_twins = request.param
        leftover = str(tmp_path_factory.mktemp("leftover") / mode)
        shutil.copytree(plain, leftover)
        weights = os.path.join(leftover, "weights")
        manifest_path = os.path.join(weights, "partition.json")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["partitions"] == 3
        buckets = []
        for k, entry in enumerate(manifest["buckets"]):
            names = [name.format(k) for name in self.TWIN_NAMES[mode]]
            if write_twins:
                # Twins that would move every answer if anything read them.
                shape = np.load(os.path.join(weights, entry["file"]),
                                mmap_mode="r").shape
                if mode == "int8":
                    np.save(os.path.join(weights, names[0]), np.zeros(shape, np.int8))
                    np.save(os.path.join(weights, names[1]),
                            np.ones(shape[0], np.float32))
                else:
                    np.save(os.path.join(weights, names[0]),
                            np.zeros(shape, np.float16))
            buckets.append({"files": names})
        manifest["quantized"] = {"mode": mode, "buckets": buckets}
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        return plain, leftover

    @staticmethod
    def _answers(engine):
        n, r = engine.model.n_entities, engine.model.n_relations
        answers = []
        for anchor in (0, 7, n - 1):
            for relation in (0, r - 1):
                for ann in (False, None):
                    for filtered in (False, True):
                        ask = dict(k=10, filtered=filtered, ann=ann)
                        answers.append(engine.top_k_tails(anchor, relation, **ask))
                        answers.append(engine.top_k_heads(relation, anchor, **ask))
            answers.append(engine.nearest_entities(anchor, k=10))
        return answers

    def test_rows_are_the_float64_buckets(self, artifacts):
        from repro.training.checkpoint import load_model

        plain, leftover = (load_model(path).entity_table() for path in artifacts)
        ids = np.arange(leftover.n_entities)
        rows = leftover.read_rows(ids)
        assert rows.dtype == np.float64
        np.testing.assert_array_equal(rows, plain.read_rows(ids))
        assert leftover.stats()["bytes_loaded"] == rows.nbytes

    def test_buckets_are_sized_as_float64(self, artifacts):
        from repro.training.checkpoint import load_model

        plain, leftover = (load_model(path).entity_table() for path in artifacts)
        assert leftover.max_resident == plain.max_resident
        for ours, theirs in zip(leftover.bucket_parameters(),
                                plain.bucket_parameters()):
            assert ours.dtype == np.float64
            assert ours.shape == theirs.shape
            assert ours.nbytes == ours.size * 8 == theirs.nbytes

    def test_answers_equal_those_without_the_entry(self, artifacts):
        from repro.serving import InferenceEngine

        plain, leftover = (InferenceEngine.from_artifact(path, filtered=True,
                                                         cache_size=0)
                           for path in artifacts)
        with plain, leftover:
            assert leftover.ann_index is not None
            assert self._answers(leftover) == self._answers(plain)
            assert leftover.stats()["ann_queries"] > 0

    def test_stats_equal_those_without_the_entry(self, artifacts):
        from repro.serving import InferenceEngine

        plain, leftover = (InferenceEngine.from_artifact(path, filtered=True,
                                                         cache_size=0)
                           for path in artifacts)
        with plain, leftover:
            self._answers(plain)
            self._answers(leftover)
            assert leftover.stats() == plain.stats()
            # Every table counter but the wall-clock ones.
            ours, theirs = (
                {key: value for key, value in engine.model.entity_table().stats().items()
                 if not key.endswith("_seconds")}
                for engine in (leftover, plain))
            assert ours == theirs
            table = leftover.model.entity_table()
            assert ours["resident_bytes"] == sum(
                table.bucket_parameters()[k].nbytes for k in table.resident_buckets())

    def test_reload_keeps_the_answers(self, artifacts):
        from repro.serving import InferenceEngine

        plain, leftover = artifacts
        with InferenceEngine.from_artifact(plain, filtered=True,
                                           cache_size=0) as engine:
            before = self._answers(engine)
            engine.reload(leftover)
            assert engine.ann_index is not None
            assert self._answers(engine) == before
            assert engine.stats()["reloads"] == 1

    def test_serve_reaches_it(self, artifacts):
        from repro import cli

        plain, leftover = (
            cli._engine_factory(build_parser().parse_args(
                ["serve", "--checkpoint", path, "--filtered"]))()
            for path in artifacts)
        with plain, leftover:
            assert self._answers(leftover) == self._answers(plain)

    def test_evaluate_prints_the_recorded_metrics(self, capsys, artifacts):
        capsys.readouterr()
        code, out = run_cli(capsys, "evaluate", "--checkpoint", artifacts[1])
        assert code == 0
        assert json.loads(out) == recorded_link_prediction(artifacts[1])


class TestServeCommand:
    """``--filtered`` needs the triples an artifact's spec.json names, so on a
    bare checkpoint both tiers refuse it with one message, in the calling
    process, before a port is bound or a worker forked."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        return save_bare_checkpoint(str(tmp_path_factory.mktemp("serve") / "m.npz"))

    @pytest.mark.parametrize("workers", ["0", "2"], ids=["threaded", "pool"])
    def test_filtered_serve_refuses_a_bare_checkpoint(self, checkpoint, workers):
        # Hold the port: a refusal that came after binding would say so.
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = str(held.getsockname()[1])
            with pytest.raises(SystemExit) as excinfo:
                main(["serve", "--checkpoint", checkpoint, "--filtered",
                      "--port", port, "--workers", workers])
        assert str(excinfo.value) == (
            "--filtered needs an artifact directory (its spec.json names the "
            f"triples to filter by), got checkpoint {checkpoint}")


def _alive(pid):
    """Whether ``pid`` is a running process (not exited, not a zombie)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads child pids from /proc")
class TestServeShutdown:
    """SIGTERM stops ``serve`` the way Ctrl-C does: the parent exits and no
    pool worker outlives it."""

    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        from repro.experiment import DataSpec, EvalSpec, ExperimentSpec, run_experiment
        from repro.registry import ModelSpec
        from repro.training import TrainingConfig

        data = DataSpec(dataset="WN18RR", scale=0.001)
        n_entities, n_relations = data.vocab_sizes()
        directory = str(tmp_path_factory.mktemp("sigterm") / "artifact")
        run_experiment(ExperimentSpec(
            name="sigterm", data=data,
            model=ModelSpec(model="transe", formulation="sparse",
                            n_entities=n_entities, n_relations=n_relations,
                            embedding_dim=8),
            training=TrainingConfig(epochs=1, batch_size=64),
            eval=EvalSpec(protocols=())), artifact_dir=directory)
        return directory

    @pytest.mark.parametrize("workers", [2, 0], ids=["pool", "threaded"])
    def test_sigterm_leaves_no_process_behind(self, artifact, workers):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--checkpoint", artifact,
             "--port", "0", "--workers", str(workers)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True)
        children = []
        try:
            assert json.loads(proc.stdout.readline())["serving"]
            with open(f"/proc/{proc.pid}/task/{proc.pid}/children",
                      encoding="ascii") as handle:
                children = [int(pid) for pid in handle.read().split()]
            assert len(children) == workers
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            deadline = time.monotonic() + 10.0
            while any(map(_alive, children)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_alive, children))
        finally:
            for pid in [proc.pid, *children]:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.wait()
            proc.stdout.close()


def _sigterm_caught(pid):
    """Whether ``pid`` has installed a handler for SIGTERM yet."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("SigCgt:"):
                return bool(int(line.split()[1], 16) >> (signal.SIGTERM - 1) & 1)
    return False


def _session_processes(sid):
    """Live (non-zombie) processes of session ``sid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process state from /proc")
class TestServeStartupShutdown:
    """A SIGTERM during start-up (the artifact loading, the pool forking,
    before the ready line) stops ``serve`` as cleanly as one while serving."""

    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        from repro.experiment import DataSpec, EvalSpec, ExperimentSpec, run_experiment
        from repro.registry import ModelSpec
        from repro.training import TrainingConfig

        data = DataSpec(dataset="WN18RR", scale=0.001)
        n_entities, n_relations = data.vocab_sizes()
        directory = str(tmp_path_factory.mktemp("sigterm-start") / "artifact")
        run_experiment(ExperimentSpec(
            name="sigterm-start", data=data,
            model=ModelSpec(model="transe", formulation="sparse",
                            n_entities=n_entities, n_relations=n_relations,
                            embedding_dim=8),
            training=TrainingConfig(epochs=1, batch_size=64),
            eval=EvalSpec(protocols=())), artifact_dir=directory)
        return directory

    @pytest.mark.parametrize("workers", [2, 0], ids=["pool", "threaded"])
    def test_sigterm_before_ready_line(self, artifact, workers):
        proc = self._serve(artifact, workers)
        try:
            # The handler is the first thing start-up arms; signal the moment
            # it is there, while the artifact is still loading.
            deadline = time.monotonic() + 60.0
            while not _sigterm_caught(proc.pid):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.001)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            self._assert_session_empty(proc.pid)
        finally:
            self._reap(proc)

    def test_sigterm_while_pool_workers_start(self, artifact):
        """The signal lands after the pool has forked its workers but before
        they report ready: the parent closes the pool, no worker survives."""
        proc = self._serve(artifact, workers=2)
        try:
            deadline = time.monotonic() + 60.0
            while len(_session_processes(proc.pid)) < 2:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.001)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert proc.stdout.read() == ""  # no ready line: still starting
            self._assert_session_empty(proc.pid)
        finally:
            self._reap(proc)

    @staticmethod
    def _serve(artifact, workers):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]))
        # Its own session, so every process it forks can be found afterwards.
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--checkpoint", artifact,
             "--port", "0", "--workers", str(workers)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True,
            start_new_session=True)

    @staticmethod
    def _assert_session_empty(sid):
        deadline = time.monotonic() + 10.0
        while _session_processes(sid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _session_processes(sid) == []

    @staticmethod
    def _reap(proc):
        for pid in _session_processes(proc.pid):
            os.kill(pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
