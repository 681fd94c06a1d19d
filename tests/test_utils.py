"""Tests for the shared utilities (seeding, validation, logging)."""

import logging
import random

import numpy as np
import pytest

from repro.utils import check_triples, get_logger, new_rng, seed_everything
from repro.utils.validation import check_json_types

#: ``{case: (payload, field kinds, rejected key or None)}`` for check_json_types.
JSON_TYPE_CASES = {
    "bool-accepts-true": ({"flag": True}, {"bools": ["flag"]}, None),
    "bool-rejects-string": ({"flag": "false"}, {"bools": ["flag"]}, "flag"),
    "bool-rejects-int": ({"flag": 1}, {"bools": ["flag"]}, "flag"),
    "int-accepts-int": ({"n": 3}, {"ints": ["n"]}, None),
    "int-rejects-float": ({"n": 12.7}, {"ints": ["n"]}, "n"),
    "int-rejects-bool": ({"n": True}, {"ints": ["n"]}, "n"),
    "int-rejects-null": ({"n": None}, {"ints": ["n"]}, "n"),
    "int-nullable-accepts-null": ({"n": None}, {"ints": ["n"], "nullable": ["n"]}, None),
    "float-accepts-int": ({"lr": 1}, {"floats": ["lr"]}, None),
    "float-rejects-bool": ({"lr": False}, {"floats": ["lr"]}, "lr"),
    "float-rejects-string": ({"lr": "0.1"}, {"floats": ["lr"]}, "lr"),
    "int-list-accepts-list": ({"ks": [1, 10]}, {"int_lists": ["ks"]}, None),
    "int-list-rejects-float-entry": ({"ks": [1, 2.5]}, {"int_lists": ["ks"]}, "ks"),
    "int-list-rejects-bool-entry": ({"ks": [1, True]}, {"int_lists": ["ks"]}, "ks"),
    "int-list-rejects-scalar": ({"ks": 10}, {"int_lists": ["ks"]}, "ks"),
    "absent-keys-keep-defaults": ({}, {"bools": ["flag"], "ints": ["n"],
                                       "floats": ["lr"], "int_lists": ["ks"]}, None),
}


class TestSeeding:
    def test_seed_everything_makes_legacy_numpy_deterministic(self):
        seed_everything(123)
        a = np.random.random(5)
        seed_everything(123)
        b = np.random.random(5)
        np.testing.assert_allclose(a, b)

    def test_seed_everything_validation(self):
        with pytest.raises(ValueError):
            seed_everything(-1)
        with pytest.raises(ValueError):
            seed_everything("abc")

    def test_new_rng_from_int_is_deterministic(self):
        np.testing.assert_allclose(new_rng(5).random(3), new_rng(5).random(3))

    def test_new_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert new_rng(gen) is gen

    def test_new_rng_none_gives_generator(self):
        assert isinstance(new_rng(None), np.random.Generator)

    def test_new_rng_validation(self):
        with pytest.raises(ValueError):
            new_rng(-3)
        with pytest.raises(TypeError):
            new_rng(3.5)

    def test_new_rng_accepts_numpy_integers(self):
        np.testing.assert_array_equal(new_rng(np.int32(4)).random(3),
                                      new_rng(4).random(3))

    def test_seed_everything_seeds_python_random(self):
        seed_everything(7)
        first = [random.random() for _ in range(3)]
        seed_everything(7)
        assert [random.random() for _ in range(3)] == first

    def test_seed_everything_wraps_numpy_seeds_past_32_bits(self):
        seed_everything(2**32 + 5)
        wrapped = np.random.random(3)
        seed_everything(5)
        np.testing.assert_array_equal(np.random.random(3), wrapped)

    def test_seed_everything_accepts_numpy_integers(self):
        seed_everything(np.int64(11))
        first = np.random.random(2)
        seed_everything(11)
        np.testing.assert_array_equal(np.random.random(2), first)

class TestValidation:
    def test_check_triples_shape(self):
        with pytest.raises(ValueError):
            check_triples(np.zeros((3, 2)))

    def test_check_triples_bounds(self):
        triples = np.array([[0, 0, 1]])
        assert check_triples(triples, n_entities=2, n_relations=1).dtype == np.int64
        with pytest.raises(ValueError):
            check_triples(triples, n_entities=1)
        with pytest.raises(ValueError):
            check_triples(np.array([[0, 3, 1]]), n_relations=2)
        with pytest.raises(ValueError):
            check_triples(np.array([[-1, 0, 1]]))

    def test_check_triples_float_with_integral_values_ok(self):
        out = check_triples(np.array([[0.0, 1.0, 2.0]]))
        assert out.dtype == np.int64

    def test_check_triples_non_integral_floats_rejected(self):
        with pytest.raises(TypeError):
            check_triples(np.array([[0.5, 1.0, 2.0]]))

    def test_check_triples_empty(self):
        out = check_triples(np.empty((0, 3)))
        assert out.shape == (0, 3)

    def test_check_triples_returns_contiguous_int64_copy_of_a_view(self):
        view = np.arange(12, dtype=np.int32).reshape(3, 4)[:, :3]
        out = check_triples(view)
        assert out.flags.c_contiguous and out.dtype == np.int64
        np.testing.assert_array_equal(out, view)

    def test_check_triples_accepts_nested_lists(self):
        out = check_triples([[0, 1, 2], [2, 0, 1]], n_entities=3, n_relations=2)
        np.testing.assert_array_equal(out, [[0, 1, 2], [2, 0, 1]])

    def test_check_triples_rejects_one_dimensional_input(self):
        with pytest.raises(ValueError, match=r"\(M, 3\)"):
            check_triples(np.array([0, 1, 2]))

    def test_check_triples_errors_name_the_argument_and_the_bound(self):
        with pytest.raises(ValueError, match="queries must have shape"):
            check_triples(np.zeros((2, 4), dtype=np.int64), name="queries")
        with pytest.raises(ValueError, match="entity index 5 but only 3 entities"):
            check_triples([[0, 0, 5]], n_entities=3)
        with pytest.raises(ValueError, match="relation index 4 but only 2"):
            check_triples([[0, 4, 1]], n_relations=2)

    @pytest.mark.parametrize("case", sorted(JSON_TYPE_CASES))
    def test_check_json_types(self, case):
        payload, kinds, rejected = JSON_TYPE_CASES[case]
        if rejected is None:
            check_json_types(payload, "training", **kinds)
        else:
            with pytest.raises(ValueError,
                               match=f"training section key '{rejected}' must be"):
                check_json_types(payload, "training", **kinds)

class TestLogging:
    def test_namespace(self):
        assert get_logger().name == "repro"
        assert get_logger("training").name == "repro.training"
        assert get_logger("repro.data").name == "repro.data"

    def test_enable_console_logging_idempotent(self):
        from repro.utils.logging import enable_console_logging

        enable_console_logging(logging.DEBUG)
        n_handlers = len(logging.getLogger("repro").handlers)
        enable_console_logging(logging.DEBUG)
        assert len(logging.getLogger("repro").handlers) == n_handlers
