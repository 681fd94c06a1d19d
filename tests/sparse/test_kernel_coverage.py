"""Parity tests closing the kernel-coverage gaps ``sptransx check`` found.

The ``kernel-parity`` rule requires every public ``kernels.py`` function to
be named by a tests/sparse/ test.  The margin kernels are covered in
``test_kernels.py``; this module covers the rest with real assertions, not
just name-drops: ``block_rows`` invariants and ``margin_loss_flops`` against
the op count of the fused loss.
"""

import numpy as np

from repro.sparse.kernels import (
    BLOCK_BYTES,
    block_rows,
    margin_loss_flops,
    margin_loss_forward,
)


class TestBlockRows:
    def test_fits_block_byte_budget(self):
        for dim in (1, 8, 50, 4096):
            rows = block_rows(dim)
            assert rows >= 64
            if rows > 64:  # above the floor the block respects the budget
                assert rows * dim * 8 <= BLOCK_BYTES

    def test_floor_for_huge_rows(self):
        assert block_rows(10**9) == 64

    def test_itemsize_scales_inverse(self):
        assert block_rows(512, itemsize=4) == 2 * block_rows(512, itemsize=8)


class TestMarginLossFlops:
    def test_counts_five_ops_per_pair(self):
        # The fused loss runs sub + add + compare + mask-multiply + sum —
        # five scalar ops per pair, which is exactly what the analytic
        # count reports for any n.
        for n in (0, 1, 13, 1024):
            assert margin_loss_flops(n) == 5 * n

    def test_consistent_with_forward_shape(self):
        rng = np.random.default_rng(13)
        pos = rng.standard_normal(64)
        neg = rng.standard_normal(64)
        raw, mask = margin_loss_forward(pos, neg, 1.0)
        assert margin_loss_flops(pos.shape[0]) == 5 * raw.shape[0]
        assert mask.dtype == np.bool_
