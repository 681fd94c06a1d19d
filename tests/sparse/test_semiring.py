"""Tests for the semiring SpMM extension (paper Appendix D)."""

import inspect

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck, ops, sanitize
from repro.models import SpComplEx, SpDistMult, SpRotatE
from repro.sparse import semiring as semiring_module
from repro.sparse.semiring import (
    SEMIRINGS,
    Semiring,
    get_semiring,
    register_semiring,
    semiring_spmm,
)

N_ENT, N_REL, DIM = 6, 3, 4

#: Row 1 has ``head == tail``, row 4 repeats row 0, and entity 0 is a head
#: three times and a tail once, so its gradient sums in an observable order.
BATCHES = {
    "mixed": np.array([[0, 1, 3], [2, 0, 2], [0, 1, 5], [5, 2, 0], [0, 1, 3]],
                      dtype=np.int64),
    "empty": np.empty((0, 3), dtype=np.int64),
}


@pytest.fixture
def triples():
    return np.array([[0, 1, 3], [2, 0, 1], [5, 2, 4]], dtype=np.int64)


@pytest.fixture
def stacked():
    rng = np.random.default_rng(2)
    return Tensor(rng.standard_normal((N_ENT + N_REL, DIM)), requires_grad=True)


def _tables(arity, seed):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.standard_normal((N_ENT + N_REL, DIM)), requires_grad=True)
            for _ in range(arity)]


def _arity(sr):
    """Tables a rule combines: its ``combine`` takes three blocks per table."""
    return len(inspect.signature(sr.combine).parameters) // 3


def _scatter_oracle(triples, E, n_entities, name, grad):
    """The gather + ``np.add.at`` kernel the semiring SpMM replaced."""
    sr = get_semiring(name)
    h_idx, r_idx, t_idx = triples[:, 0], triples[:, 1] + n_entities, triples[:, 2]
    H, R, T = E[h_idx], E[r_idx], E[t_idx]
    grad_h, grad_r, grad_t = sr.grads(H, R, T, grad)
    full = np.zeros_like(E)
    np.add.at(full, h_idx, grad_h)
    np.add.at(full, r_idx, grad_r)
    np.add.at(full, t_idx, grad_t)
    return sr.combine(H, R, T), full


def _gathered(triples, re, im, n_entities):
    """Per-block ``gather_rows`` of a (real, imaginary) pair: the autograd path."""
    idx = (triples[:, 0], triples[:, 1] + n_entities, triples[:, 2])
    return ([ops.gather_rows(re, i) for i in idx], [ops.gather_rows(im, i) for i in idx])


def _complex_reference(triples, re, im, n_entities):
    (h_re, r_re, t_re), (h_im, r_im, t_im) = _gathered(triples, re, im, n_entities)
    return (h_re * r_re * t_re - h_im * r_im * t_re
            + h_re * r_im * t_im + h_im * r_re * t_im)


def _rotate_reference(triples, re, im, n_entities):
    (h_re, r_re, t_re), (h_im, r_im, t_im) = _gathered(triples, re, im, n_entities)
    res_re = h_re * r_re - h_im * r_im - t_re
    res_im = h_re * r_im + h_im * r_re - t_im
    return ops.sqrt(res_re * res_re + res_im * res_im, eps=1e-12)


class TestRegistry:
    def test_builtin_semirings(self):
        assert {"plus_times", "times_times", "complex", "rotate"} <= set(SEMIRINGS)

    def test_get_semiring_passthrough(self):
        sr = get_semiring("plus_times")
        assert get_semiring(sr) is sr

    def test_unknown_semiring(self):
        with pytest.raises(KeyError):
            get_semiring("bogus")

    def test_register_custom_semiring(self, monkeypatch):
        monkeypatch.setattr(semiring_module, "SEMIRINGS", dict(SEMIRINGS))
        custom = Semiring("unit-test-min-plus",
                          combine=lambda h, r, t: np.minimum(np.minimum(h, r), t),
                          grads=lambda h, r, t, g: (g, g, g))
        register_semiring(custom)
        assert get_semiring("unit-test-min-plus") is custom
        with pytest.raises(ValueError):
            register_semiring(custom)


class TestSemiringSpmm:
    def test_plus_times_matches_hrt(self, triples, stacked):
        out = semiring_spmm(triples, stacked, N_ENT, "plus_times")
        E = stacked.data
        expected = E[triples[:, 0]] + E[N_ENT + triples[:, 1]] - E[triples[:, 2]]
        np.testing.assert_allclose(out.data, expected)

    def test_times_times_matches_distmult(self, triples, stacked):
        out = semiring_spmm(triples, stacked, N_ENT, "times_times")
        E = stacked.data
        expected = E[triples[:, 0]] * E[N_ENT + triples[:, 1]] * E[triples[:, 2]]
        np.testing.assert_allclose(out.data, expected)

    @pytest.mark.parametrize("name", sorted(SEMIRINGS))
    @pytest.mark.parametrize("sparse_grad", [False, True])
    def test_gradcheck(self, name, sparse_grad, triples):
        tables = _tables(_arity(SEMIRINGS[name]), seed=5)
        with sanitize(True):
            ok, err = gradcheck(
                lambda *E: semiring_spmm(triples, E, N_ENT, name, sparse_grad=sparse_grad),
                tables)
        assert ok, err

    def test_relation_index_bounds(self, stacked):
        bad = np.array([[0, N_REL, 1]], dtype=np.int64)
        with pytest.raises(ValueError):
            semiring_spmm(bad, stacked, N_ENT)

    def test_entity_index_bounds(self, stacked):
        bad = np.array([[N_ENT, 0, 1]], dtype=np.int64)
        with pytest.raises(ValueError):
            semiring_spmm(bad, stacked, N_ENT)

    def test_accepts_plain_array(self, triples):
        E = np.random.default_rng(4).standard_normal((N_ENT + N_REL, DIM))
        out = semiring_spmm(triples, E, N_ENT, "plus_times")
        assert out.shape == (3, DIM)

    def test_duplicate_entities_in_row(self, stacked):
        triples = np.array([[2, 1, 2]], dtype=np.int64)
        out = semiring_spmm(triples, stacked, N_ENT, "times_times")
        E = stacked.data
        np.testing.assert_allclose(out.data, (E[2] * E[N_ENT + 1] * E[2])[None, :])


class TestMatchesTheScatterKernel:
    """Unit weights through ``Gᵀ`` add in the order the scatter did: equal bits."""

    @pytest.mark.parametrize("name", ["plus_times", "times_times"])
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_forward_and_gradient_are_array_equal(self, name, batch):
        triples = BATCHES[batch]
        (E,) = _tables(1, seed=3)
        upstream = np.random.default_rng(9).standard_normal((len(triples), DIM))
        out = semiring_spmm(triples, E, N_ENT, name)
        out.backward(upstream)
        expected_out, expected_grad = _scatter_oracle(triples, E.data, N_ENT, name, upstream)
        assert np.array_equal(out.data, expected_out)
        assert np.array_equal(E.grad, expected_grad)


class TestPairSemirings:
    @pytest.mark.parametrize("name,reference", [("complex", _complex_reference),
                                                ("rotate", _rotate_reference)])
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_matches_the_gather_autograd_path(self, name, reference, batch):
        triples = BATCHES[batch]
        re, im = _tables(2, seed=7)
        re_ref, im_ref = (Tensor(t.data.copy(), requires_grad=True) for t in (re, im))
        upstream = np.random.default_rng(8).standard_normal((len(triples), DIM))

        out = semiring_spmm(triples, (re, im), N_ENT, name)
        expected = reference(triples, re_ref, im_ref, N_ENT)
        assert np.array_equal(out.data, expected.data)
        out.backward(upstream)
        expected.backward(upstream)
        for got, want in ((re.grad, re_ref.grad), (im.grad, im_ref.grad)):
            scale = max(np.max(np.abs(want), initial=0.0), 1.0)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

    def test_complex_matches_explicit_complex_product(self, triples):
        re, im = _tables(2, seed=7)
        out = semiring_spmm(triples, (re, im), N_ENT, "complex")

        h = re.data[triples[:, 0]] + 1j * im.data[triples[:, 0]]
        r = re.data[N_ENT + triples[:, 1]] + 1j * im.data[N_ENT + triples[:, 1]]
        t = re.data[triples[:, 2]] + 1j * im.data[triples[:, 2]]
        expected = np.real(h * r * np.conj(t))
        np.testing.assert_allclose(out.data, expected, rtol=1e-10)

    def test_rotate_is_the_element_wise_modulus(self, triples):
        re, im = _tables(2, seed=6)
        out = semiring_spmm(triples, (re, im), N_ENT, "rotate")

        h = re.data[triples[:, 0]] + 1j * im.data[triples[:, 0]]
        r = re.data[N_ENT + triples[:, 1]] + 1j * im.data[N_ENT + triples[:, 1]]
        t = re.data[triples[:, 2]] + 1j * im.data[triples[:, 2]]
        np.testing.assert_allclose(out.data, np.abs(h * r - t), rtol=1e-10)


def _model_tables(model):
    if isinstance(model, SpDistMult):
        return model.embeddings.weight
    if isinstance(model, SpComplEx):
        return model.real.weight, model.imag.weight
    return model._stacked()


#: The registered semiring each Appendix-D model scores through.
MODEL_SEMIRINGS = {SpDistMult: "times_times", SpComplEx: "complex", SpRotatE: "rotate"}


class TestSemiringModels:
    @pytest.mark.parametrize("cls", sorted(MODEL_SEMIRINGS, key=lambda c: c.__name__))
    def test_scores_are_the_semiring_spmm(self, cls, triples):
        model = cls(N_ENT, N_REL, DIM, rng=0)
        sr = get_semiring(MODEL_SEMIRINGS[cls])
        combined = semiring_spmm(triples, _model_tables(model), N_ENT, sr).sum(axis=-1)
        sign = 1.0 if cls is SpRotatE else -1.0
        assert np.array_equal(sign * combined.data, model.score_triples(triples))

    @pytest.mark.parametrize("cls", [SpDistMult, SpComplEx])
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_packed_rows_are_the_dense_gradient_rows(self, cls, batch):
        triples = BATCHES[batch]
        weights = Tensor(np.random.default_rng(3).standard_normal(len(triples)))
        dense = cls(N_ENT, N_REL, DIM, rng=0)
        sparse = cls(N_ENT, N_REL, DIM, rng=0).set_sparse_grads(True)
        for model in (dense, sparse):
            (model.plausibility(triples) * weights).sum().backward()

        touched = np.unique(np.concatenate(
            [triples[:, 0], N_ENT + triples[:, 1], triples[:, 2]]))
        for p_dense, p_sparse in zip(dense.parameters(), sparse.parameters()):
            packed = p_sparse.sparse_grad
            assert packed is not None
            np.testing.assert_array_equal(packed.indices, touched)
            assert np.array_equal(packed.values, p_dense.grad[touched])
            assert not np.delete(p_dense.grad, touched, axis=0).any()
