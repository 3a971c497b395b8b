from __future__ import annotations

import numpy as np
import pytest

from swhamming import codec, gf2, hcms


@pytest.fixture(scope="session")
def bundle_a3():
    return hcms.hcms_for_a(3)


@pytest.fixture(scope="session")
def bundle_a4():
    return hcms.hcms_for_a(4)


@pytest.fixture(scope="session")
def bundle_a5():
    return hcms.hcms_for_a(5)


@pytest.fixture(scope="session")
def trivial_code():
    one = gf2.BitMatrix.from_bits([[1]])
    return codec.make_code([one, one, one])


def hamming_parity_check(m: int) -> gf2.BitMatrix:
    """Canonical m-bit Hamming matrix, columns in ascending value order."""
    return hcms.hamming_matrix(m)


@pytest.fixture(scope="session")
def pair_n7():
    """(identity, Hamming parity check) perfect 2-source code at n = 7."""
    return codec.make_code([gf2.BitMatrix.identity(7), hamming_parity_check(3)])


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)
