"""The packed kernels on their own: bit packing and the exactness guard of
the dense product."""

from __future__ import annotations

import numpy as np
import pytest

from swhamming import _kernels


def test_pack_unpack_roundtrip(rng):
    for cols in (1, 63, 64, 65, 128, 341):
        bits = rng.integers(0, 2, size=(5, cols), dtype=np.uint8)
        packed = _kernels.pack_bits(bits)
        assert packed.shape == (5, _kernels.nwords(cols))
        assert np.array_equal(_kernels.unpack_bits(packed, cols), bits)


def test_bits_matmul_refuses_inexact_inner_dimension():
    # a broadcast view: the shape is checked before anything is allocated
    a = np.broadcast_to(np.uint8(1), (1, 1 << 24))
    with pytest.raises(ValueError, match="exact float32"):
        _kernels.bits_matmul(a, a.T)
