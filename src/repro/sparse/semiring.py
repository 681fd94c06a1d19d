"""Semiring SpMM — the Appendix-D generalisation to non-translational models.

The standard SpMM over the ``hrt`` incidence matrix computes, per triplet row,

    ``(+1)·E[h] ⊕ (+1)·E[N+r] ⊕ (−1)·E[t]``  with  ``⊕ = +`` and ``· = ×``.

Swapping the semiring operators generalises the same kernel to bilinear and
rotational models:

===============  ====================================  ===============
semiring         per-row combination                   model
===============  ====================================  ===============
``plus_times``   ``h + r − t``                         TransE
``times_times``  ``h ⊙ r ⊙ t``                         DistMult
``complex``      ``Re(h ⊙ r ⊙ conj(t))`` (pairs)       ComplEx
``rotate``       ``|h ⊙ r − t|`` element-wise (pairs)  RotatE
===============  ====================================  ===============

:func:`semiring_spmm` runs on the production :func:`~repro.sparse.spmm.spmm`:
a ``(3B, N + R)`` *role incidence* ``G`` with one unit entry per row (heads,
then ``N + relation``, then tails) gathers ``H; R; T`` in one ``G @ E``, and
``combine`` is applied row-wise.  The backward stacks ``grads`` into one
``(3B, d)`` block that ``spmm``'s own backward takes through ``Gᵀ`` (dense or
row-sparse).  A (real, imaginary) pair of tables goes through the same ``G``;
``combine`` / ``grads`` then receive the three blocks of each table in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Union

import numpy as np

from repro.autograd.function import count_flops
from repro.autograd.tensor import Tensor
from repro.sparse.csr import CSRMatrix
from repro.sparse.spmm import spmm
from repro.utils.validation import check_triples

CombineFn = Callable[..., np.ndarray]
GradFn = Callable[..., tuple]


@dataclass(frozen=True)
class Semiring:
    """A named (⊕, ⊗) pair with its analytic gradient rule.

    Attributes
    ----------
    name:
        Registry key.
    combine:
        ``(H, R, T) -> out`` applied row-wise to the gathered embedding blocks
        (``(H, R, T)`` of the real then the imaginary table over a pair).
    grads:
        ``(H, R, T, grad_out) -> (grad_H, grad_R, grad_T)``, one per block.
    flops_per_element:
        Approximate floating-point operations per output element, used by the
        FLOP profiler.
    """

    name: str
    combine: CombineFn
    grads: GradFn
    flops_per_element: int = 2


def _plus_times_combine(h, r, t):
    return h + r - t


def _plus_times_grads(h, r, t, g):
    return g, g, -g


def _times_times_combine(h, r, t):
    return h * r * t


def _times_times_grads(h, r, t, g):
    return g * r * t, g * h * t, g * h * r


def _complex_combine(h_re, r_re, t_re, h_im, r_im, t_im):
    # Re(h ⊙ r ⊙ conj(t)) expanded into four real products, in the order the
    # dense ComplEx baseline sums them (so the two score bit-identically).
    return (h_re * r_re * t_re
            - h_im * r_im * t_re
            + h_re * r_im * t_im
            + h_im * r_re * t_im)


def _complex_grads(h_re, r_re, t_re, h_im, r_im, t_im, g):
    return (g * (r_re * t_re + r_im * t_im),
            g * (h_re * t_re + h_im * t_im),
            g * (h_re * r_re - h_im * r_im),
            g * (r_re * t_im - r_im * t_re),
            g * (h_re * t_im - h_im * t_re),
            g * (h_re * r_im + h_im * r_re))


def _rotate_residual(h_re, r_re, t_re, h_im, r_im, t_im):
    return h_re * r_re - h_im * r_im - t_re, h_re * r_im + h_im * r_re - t_im


def _rotate_combine(h_re, r_re, t_re, h_im, r_im, t_im):
    # The 1e-12 keeps the modulus, and so its gradient, finite at h ⊙ r = t.
    res_re, res_im = _rotate_residual(h_re, r_re, t_re, h_im, r_im, t_im)
    return np.sqrt(res_re * res_re + res_im * res_im + 1e-12)


def _rotate_grads(h_re, r_re, t_re, h_im, r_im, t_im, g):
    res_re, res_im = _rotate_residual(h_re, r_re, t_re, h_im, r_im, t_im)
    scale = g / np.sqrt(res_re * res_re + res_im * res_im + 1e-12)
    g_re, g_im = scale * res_re, scale * res_im
    return (g_re * r_re + g_im * r_im,
            g_re * h_re + g_im * h_im,
            -g_re,
            g_im * r_re - g_re * r_im,
            g_im * h_re - g_re * h_im,
            -g_im)


SEMIRINGS: Dict[str, Semiring] = {
    "plus_times": Semiring("plus_times", _plus_times_combine, _plus_times_grads, 2),
    "times_times": Semiring("times_times", _times_times_combine, _times_times_grads, 2),
    "complex": Semiring("complex", _complex_combine, _complex_grads, 11),
    "rotate": Semiring("rotate", _rotate_combine, _rotate_grads, 13),
}


def get_semiring(name) -> Semiring:
    """Look up a semiring by name (instances pass through unchanged)."""
    if isinstance(name, Semiring):
        return name
    try:
        return SEMIRINGS[name]
    except KeyError:
        raise KeyError(f"unknown semiring {name!r}; available: {sorted(SEMIRINGS)}") from None


def register_semiring(semiring: Semiring, overwrite: bool = False) -> Semiring:
    """Add a custom semiring to the registry (the Appendix-D extension hook)."""
    if semiring.name in SEMIRINGS and not overwrite:
        raise ValueError(f"semiring {semiring.name!r} already registered")
    SEMIRINGS[semiring.name] = semiring
    return semiring


def semiring_spmm(
    triples: np.ndarray,
    stacked_embeddings: Union[Tensor, Sequence[Tensor]],
    n_entities: int,
    semiring="plus_times",
    sparse_grad: bool = False,
) -> Tensor:
    """Apply a semiring SpMM over the ``hrt`` incidence pattern.

    Parameters
    ----------
    triples:
        ``(M, 3)`` integer array of ``(head, relation, tail)``.
    stacked_embeddings:
        Tensor of shape ``(N + R, d)``: entity rows first, relation rows after
        (exactly the stacked layout of Section 4.2.2) — or a (real, imaginary)
        pair of such tensors for a semiring over complex embeddings.
    n_entities:
        Number of entity rows ``N`` (relation columns are offset by this).
    semiring:
        Name or :class:`Semiring` instance.
    sparse_grad:
        Passed to :func:`~repro.sparse.spmm.spmm`: leaf tables then receive a
        :class:`~repro.sparse.rowsparse.RowSparseGrad` of the touched rows.

    Returns
    -------
    Tensor of shape ``(M, d)`` — the per-triplet combined vectors.
    """
    sr = get_semiring(semiring)
    tables = (stacked_embeddings if isinstance(stacked_embeddings, (tuple, list))
              else (stacked_embeddings,))
    triples = check_triples(triples)
    n_entities = int(n_entities)
    n_rows = tables[0].shape[0]
    if triples.size:
        if triples[:, [0, 2]].max() >= n_entities:
            raise ValueError("entity index exceeds n_entities")
        if n_entities + triples[:, 1].max() >= n_rows:
            raise ValueError("relation index exceeds stacked embedding rows")

    m = triples.shape[0]
    roles = np.concatenate([triples[:, 0], triples[:, 1] + n_entities, triples[:, 2]])
    G = CSRMatrix(np.arange(3 * m + 1, dtype=np.int64), roles,
                  np.ones(3 * m, dtype=np.float64), (3 * m, n_rows))
    gathered = [spmm(G, E, sparse_grad=sparse_grad) for E in tables]
    blocks = [X.data[i * m:(i + 1) * m] for X in gathered for i in range(3)]
    out_data = sr.combine(*blocks)
    count_flops(f"semiring_spmm[{sr.name}]", sr.flops_per_element * out_data.size)

    def backward(grad: np.ndarray) -> None:
        role_grads = sr.grads(*blocks, grad)
        count_flops(f"semiring_spmm_bwd[{sr.name}]", sr.flops_per_element * grad.size * 3)
        for i, X in enumerate(gathered):
            if X.requires_grad:
                X.accumulate_grad(np.concatenate(role_grads[3 * i:3 * i + 3]), owned=True)

    return Tensor._make(out_data, gathered, backward, f"semiring_spmm[{sr.name}]")
