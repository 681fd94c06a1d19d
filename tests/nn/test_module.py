"""Tests for the Module / Parameter abstractions."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import Module, Parameter


class Leaf(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.ones((2, 3)))
        self.bias = Parameter(np.zeros(3))

    def forward(self, x):
        return x @ self.weight + self.bias


class Composite(Module):
    def __init__(self):
        super().__init__()
        self.first = Leaf()
        self.second = Leaf()
        self.scale = Parameter(np.array([2.0]))


class TestParameter:
    def test_requires_grad_by_default(self):
        p = Parameter(np.zeros(3))
        assert p.requires_grad

    def test_always_float(self):
        p = Parameter(np.array([1, 2, 3]))
        assert np.issubdtype(p.dtype, np.floating)

    def test_named_on_registration(self):
        leaf = Leaf()
        assert leaf.weight.name == "weight"


class TestRegistration:
    def test_parameters_discovered(self):
        leaf = Leaf()
        names = dict(leaf.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_nested_modules_discovered(self):
        comp = Composite()
        names = dict(comp.named_parameters())
        assert set(names) == {
            "scale", "first.weight", "first.bias", "second.weight", "second.bias"
        }

    def test_reassignment_removes_old_registration(self):
        leaf = Leaf()
        leaf.weight = "not a parameter"
        assert set(dict(leaf.named_parameters())) == {"bias"}

    def test_modules_iteration(self):
        comp = Composite()
        assert len(list(comp.modules())) == 3

    def test_prefix_qualifies_every_name(self):
        names = [name for name, _ in Composite().named_parameters(prefix="model.")]
        assert names == ["model.scale", "model.first.weight", "model.first.bias",
                         "model.second.weight", "model.second.bias"]

    def test_parameters_follow_named_order(self):
        comp = Composite()
        assert [id(p) for p in comp.parameters()] == \
            [id(p) for _, p in comp.named_parameters()]

    def test_reassigning_a_submodule_replaces_its_parameters(self):
        comp = Composite()
        old, new = comp.first, Leaf()
        comp.first = new
        params = dict(comp.named_parameters())
        assert params["first.weight"] is new.weight
        assert all(p is not old.weight and p is not old.bias
                   for p in params.values())

    def test_assigning_a_plain_value_over_a_submodule_unregisters_it(self):
        comp = Composite()
        comp.second = None
        assert set(dict(comp.named_parameters())) == {
            "scale", "first.weight", "first.bias"}
        assert len(list(comp.modules())) == 2

    def test_registered_parameter_keeps_an_existing_name(self):
        shared = Parameter(np.zeros(2), name="shared")
        leaf = Leaf()
        leaf.extra = shared
        assert shared.name == "shared"
        assert dict(leaf.named_parameters())["extra"] is shared


class TestModes:
    def test_zero_grad(self):
        leaf = Leaf()
        leaf.forward(Tensor(np.ones((4, 2)))).sum().backward()
        assert leaf.weight.grad is not None
        leaf.zero_grad()
        assert leaf.weight.grad is None

    def test_zero_grad_reaches_nested_modules(self):
        comp = Composite()
        x = Tensor(np.ones((4, 2)))
        (comp.first(x).sum() + comp.second(x).sum() * comp.scale).sum().backward()
        assert all(p.grad is not None for p in comp.parameters())
        comp.zero_grad()
        assert all(p.grad is None for p in comp.parameters())

    def test_call_dispatches_to_forward(self):
        leaf = Leaf()
        x = Tensor(np.ones((4, 2)))
        np.testing.assert_array_equal(leaf(x).data, leaf.forward(x).data)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)
