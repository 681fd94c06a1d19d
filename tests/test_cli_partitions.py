"""CLI surface of partitioned tables: --partitions on export-spec/run."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.experiment import ExperimentSpec


class TestExportSpecPartitions:
    def test_partitions_written_into_spec(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        code = main(["export-spec", "--dataset", "WN18RR", "--scale", "0.003",
                     "--model", "transe", "--epochs", "1", "--dim", "8",
                     "--partitions", "4", "--output", str(out)])
        assert code == 0
        spec = ExperimentSpec.from_file(str(out))
        assert spec.model.partitions == 4
        # partitioned tables only have a row-sparse path; the training
        # section, the one gradient switch, records it
        assert spec.training.sparse_grads is True
        assert "sparse_grads" not in spec.to_dict()["model"]

    def test_partitions_default_omitted(self, tmp_path):
        out = tmp_path / "spec.json"
        main(["export-spec", "--dataset", "WN18RR", "--scale", "0.003",
              "--model", "transe", "--epochs", "1", "--dim", "8",
              "--output", str(out)])
        payload = json.loads(out.read_text())
        assert "partitions" not in payload["model"]


class TestRunOverride:
    def test_run_partitions_override(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        main(["export-spec", "--dataset", "WN18RR", "--scale", "0.003",
              "--model", "transe", "--epochs", "1", "--batch-size", "256",
              "--dim", "8", "--test-fraction", "0.1", "--generator", "learnable",
              "--storage", "sqlite", "--output", str(spec_path)])
        capsys.readouterr()
        artifacts = tmp_path / "artifact"
        code = main(["run", str(spec_path), "--artifacts", str(artifacts),
                     "--partitions", "2", "--quiet"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"]["partitions"] == 2
        stored = ExperimentSpec.from_file(str(artifacts / "spec.json"))
        assert stored.model.partitions == 2
        assert stored.training.sparse_grads is True
        written = json.loads((artifacts / "spec.json").read_text())
        assert "sparse_grads" not in written["model"]
        assert (artifacts / "weights" / "entities.bucket0.npy").exists()
        assert (artifacts / "weights" / "partition.json").exists()

    def test_parser_exposes_partitions_everywhere(self):
        parser = build_parser()
        for argv in (["export-spec", "--partitions", "2"],
                     ["run", "spec.json", "--partitions", "2"]):
            args = parser.parse_args(argv)
            assert args.partitions == 2

    def test_invalid_partition_counts_fail_loudly(self, tmp_path):
        for bad in ("0", "-4"):
            with pytest.raises(SystemExit, match="partitions"):
                main(["export-spec", "--dataset", "WN18RR", "--scale", "0.003",
                      "--model", "transe", "--dim", "8", "--partitions", bad,
                      "--output", str(tmp_path / "spec.json")])


class TestScheduleConfigGuards:
    def test_bernoulli_sampler_rejected_with_partitions(self):
        from repro.experiment import DataSpec, EvalSpec, Experiment, ExperimentSpec
        from repro.registry import ModelSpec
        from repro.training import TrainingConfig

        data = DataSpec(dataset="WN18RR", scale=0.003, storage="sqlite",
                        negative_sampler="bernoulli", test_fraction=0.05)
        n_e, n_r = data.vocab_sizes()
        spec = ExperimentSpec(
            name="guard", data=data,
            model=ModelSpec(model="transe", formulation="sparse",
                            n_entities=n_e, n_relations=n_r, embedding_dim=8,
                            partitions=2),
            training=TrainingConfig(epochs=1, batch_size=128, sparse_grads=True),
            eval=EvalSpec(protocols=()),
        )
        with pytest.raises(ValueError, match="bucket-local"):
            Experiment(spec).run()

    def test_user_supplied_store_is_not_reordered(self, tmp_path):
        """Clustering would change the seeded block shuffle of later
        unpartitioned runs sharing the database, so a user-supplied
        storage_path is streamed as-is."""
        from repro.data import SQLiteKGStore
        from repro.experiment import DataSpec, EvalSpec, Experiment, ExperimentSpec
        from repro.registry import ModelSpec
        from repro.training import TrainingConfig

        db = str(tmp_path / "shared.sqlite")
        data = DataSpec(dataset="WN18RR", scale=0.003, storage="sqlite",
                        storage_path=db, test_fraction=0.05)
        n_e, n_r = data.vocab_sizes()
        spec = ExperimentSpec(
            name="shared-store", data=data,
            model=ModelSpec(model="transe", formulation="sparse",
                            n_entities=n_e, n_relations=n_r, embedding_dim=8,
                            partitions=2),
            training=TrainingConfig(epochs=1, batch_size=128, sparse_grads=True),
            eval=EvalSpec(protocols=()),
        )
        Experiment(spec).run()
        with SQLiteKGStore(db) as store:
            assert store.get_meta("clustered_bucket_size") is None
