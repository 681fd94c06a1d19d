"""Autograd sanitizer: NaN/Inf, dtype-widening, and shape guards on the tape."""

import numpy as np
import pytest

from repro.autograd import SanitizerError, Tensor, sanitize, sanitize_enabled
from repro.losses.margin import margin_ranking_loss
from repro.sparse import kernels
from repro.training.config import TrainingConfig


@pytest.fixture(autouse=True)
def _sanitizer_off_after():
    yield
    sanitize(False)


class TestToggle:
    def test_off_by_default(self):
        assert not sanitize_enabled()

    def test_sticky_enable(self):
        sanitize(True)
        assert sanitize_enabled()
        sanitize(False)
        assert not sanitize_enabled()

    def test_context_manager_restores(self):
        with sanitize(True):
            assert sanitize_enabled()
        assert not sanitize_enabled()

    def test_nested_scopes(self):
        sanitize(True)
        with sanitize(False):
            assert not sanitize_enabled()
        assert sanitize_enabled()


class TestForwardChecks:
    def test_nan_output_names_the_op(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True, name="a")
        with sanitize(True):
            with pytest.raises(SanitizerError, match=r"op 'mul'.*\ba\b"):
                a * np.array([np.nan, 1.0])

    def test_inf_output_flagged(self):
        a = Tensor(np.array([1e308]), requires_grad=True)
        with sanitize(True):
            # numpy announces the overflow that makes the inf; CI runs with
            # RuntimeWarning as an error, so the one expected here is asserted.
            with pytest.warns(RuntimeWarning, match="overflow encountered in add"):
                with pytest.raises(SanitizerError, match="non-finite"):
                    a + np.array([1e308])

    def test_clean_ops_pass(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with sanitize(True):
            out = (a * 3.0 + 1.0).sum()
            out.backward()
        np.testing.assert_allclose(a.grad, [3.0, 3.0])

    def test_disabled_lets_nan_through(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        out = a * np.array([np.nan])
        assert np.isnan(out.data).all()

    def test_forward_dtype_widening_flagged(self):
        parent = Tensor(np.ones(3, dtype=np.float32), requires_grad=True,
                        name="w32")
        with sanitize(True):
            with pytest.raises(SanitizerError, match="widening.*float32.*float64"):
                Tensor._make(np.ones(3, dtype=np.float64), (parent,),
                             lambda g: None, "bad_cast")

    def test_same_width_passes(self):
        parent = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        with sanitize(True):
            out = Tensor._make(np.ones(3), (parent,), lambda g: None, "ok")
        assert out.data.dtype == np.float64


class TestKernelInjection:
    def test_nan_injected_into_fused_kernel_names_it(self, monkeypatch):
        # The acceptance scenario: a NaN produced *inside* a fused kernel
        # must surface naming the tape op, not as a poisoned metric later.
        def poisoned(pos, neg, margin):
            return float("nan"), np.zeros(pos.shape[0], dtype=bool)

        monkeypatch.setattr(kernels, "margin_loss_sum", poisoned)
        pos = Tensor(np.array([0.1, 0.2]), requires_grad=True, name="pos")
        neg = Tensor(np.array([0.3, 0.4]), requires_grad=True, name="neg")
        with sanitize(True):
            with pytest.raises(SanitizerError) as excinfo:
                margin_ranking_loss(pos, neg, margin=0.5)
        message = str(excinfo.value)
        assert "margin_loss[fused]" in message
        assert "pos" in message and "neg" in message

    def test_clean_fused_loss_passes_and_backprops(self):
        pos = Tensor(np.array([0.1, 0.9]), requires_grad=True)
        neg = Tensor(np.array([0.3, 0.4]), requires_grad=True)
        with sanitize(True):
            loss = margin_ranking_loss(pos, neg, margin=0.5)
            loss.backward()
        assert pos.grad is not None and neg.grad is not None


class TestBackwardChecks:
    def test_upstream_shape_mismatch_flagged(self):
        parent = Tensor(np.ones((2, 3)), requires_grad=True)
        with sanitize(True):
            out = Tensor._make(np.ones((2, 3)), (parent,),
                               lambda g: None, "noop")
        with pytest.raises(SanitizerError, match="does not match output shape"):
            out._backward(np.ones((3, 2)))

    def test_nan_upstream_gradient_flagged(self):
        parent = Tensor(np.ones(2), requires_grad=True)
        with sanitize(True):
            out = Tensor._make(np.ones(2), (parent,), lambda g: None, "noop")
        with pytest.raises(SanitizerError, match="upstream gradient"):
            out._backward(np.array([np.nan, 1.0]))

    def test_parent_grad_shape_mismatch_flagged(self):
        parent = Tensor(np.ones((2, 3)), requires_grad=True, name="p")

        def bad_backward(grad):
            parent._grad = np.ones(5)

        with sanitize(True):
            out = Tensor._make(np.ones(4), (parent,), bad_backward, "bad_bwd")
        with pytest.raises(SanitizerError,
                           match="does not match parameter shape"):
            out._backward(np.ones(4))

    def test_parent_grad_dtype_widening_flagged(self):
        parent = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)

        def widening_backward(grad):
            parent._grad = np.ones(2, dtype=np.float64)

        with sanitize(True):
            out = Tensor._make(np.ones(2, dtype=np.float32), (parent,),
                               widening_backward, "widen_bwd")
        with pytest.raises(SanitizerError, match="widens the float32"):
            out._backward(np.ones(2, dtype=np.float32))

    def test_nan_parent_gradient_flagged(self):
        parent = Tensor(np.ones(2), requires_grad=True)

        def nan_backward(grad):
            parent._grad = np.array([np.nan, 0.0])

        with sanitize(True):
            out = Tensor._make(np.ones(2), (parent,), nan_backward, "nan_bwd")
        with pytest.raises(SanitizerError, match="accumulated gradient"):
            out._backward(np.ones(2))


class TestTrainingWiring:
    def test_config_field_round_trips(self):
        config = TrainingConfig(epochs=1, sanitize=True)
        assert TrainingConfig.from_dict(config.to_dict()).sanitize is True

    def test_trainer_arms_sanitizer(self):
        from repro.data.synthetic import generate_synthetic_kg
        from repro.models.transe import SpTransE
        from repro.training.trainer import Trainer

        kg = generate_synthetic_kg(n_entities=20, n_relations=3, n_triples=40)
        model = SpTransE(kg.n_entities, kg.n_relations, embedding_dim=8)
        Trainer(model, kg, config=TrainingConfig(
            epochs=1, batch_size=16, sanitize=True))
        assert sanitize_enabled()

    def test_sanitized_training_step_runs_clean(self):
        from repro.data.synthetic import generate_synthetic_kg
        from repro.models.transe import SpTransE
        from repro.training.trainer import Trainer

        kg = generate_synthetic_kg(n_entities=20, n_relations=3, n_triples=40)
        model = SpTransE(kg.n_entities, kg.n_relations, embedding_dim=8)
        trainer = Trainer(model, kg, config=TrainingConfig(
            epochs=1, batch_size=16, sanitize=True))
        result = trainer.train()
        assert np.isfinite(result.final_loss)


class TestCliWiring:
    def test_export_spec_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["export-spec", "--epochs", "1", "--sanitize"])
        assert args.sanitize is True

    def test_run_override_sets_spec(self):
        import argparse

        from repro.cli import _apply_run_overrides
        from repro.experiment import DataSpec, EvalSpec, ExperimentSpec
        from repro.registry import ModelSpec

        spec = ExperimentSpec(
            name="t",
            data=DataSpec(dataset="FB15K", scale=0.001),
            model=ModelSpec(model="transe", formulation="sparse",
                            n_entities=10, n_relations=2, embedding_dim=4),
            training=TrainingConfig(epochs=1),
            eval=EvalSpec(protocols=()),
        )
        args = argparse.Namespace(storage=None, storage_path=None,
                                  workers=None, partitions=None,
                                  backend=None, sanitize=True)
        assert _apply_run_overrides(spec, args).training.sanitize is True
