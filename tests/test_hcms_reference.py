"""The Hamming partition on column values (``hcms._column_values``,
``validate_partition`` and the lift ``hcms._lift``) against the code it
replaced, kept here as the reference: columns as Python ints of an object
array, and the lift building one tuple per column and pairing the leftover
tags of every group on its own."""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from swhamming import gf2, hcms
from swhamming.errors import NotHammingPartitionError
from swhamming.gf2 import BitMatrix

# ---------------------------------------------------------------------------
# reference: the partition code as it was
# ---------------------------------------------------------------------------


def ref_column_values(M: BitMatrix) -> np.ndarray:
    """Integer value of every column, row 0 as MSB."""
    arr = M.to_array()
    weights = (np.int64(1) << np.arange(M.rows - 1, -1, -1)).astype(object)
    return arr.T.astype(object) @ weights


def ref_validate_partition(Q) -> None:
    if len(Q) < 2:
        raise NotHammingPartitionError("a partition needs at least two blocks")
    mn = Q[0].rows
    n = Q[0].cols
    if any(B.rows != mn or B.cols != n for B in Q):
        raise NotHammingPartitionError("blocks have unequal shapes")
    if len(Q) * n != (1 << mn) - 1:
        raise NotHammingPartitionError(
            f"{len(Q)} blocks of {n} columns cannot partition a {mn}-bit Hamming matrix"
        )
    acc = Q[0]
    for B in Q[1:]:
        acc = acc + B
    if not acc.is_zero():
        raise NotHammingPartitionError("blocks do not sum to zero")
    vals = sorted(ref_column_values(gf2.hstack(Q)))
    if vals != list(range(1, (1 << mn))):
        raise NotHammingPartitionError("columns are not the distinct nonzero vectors")


_TAG_U = (1, 0)
_TAG_V = (0, 1)
_TAG_W = (1, 1)
_HEAD_COMBOS = (
    (_TAG_V, _TAG_W, _TAG_U),
    (_TAG_W, _TAG_U, _TAG_V),
    (_TAG_W, _TAG_V, _TAG_U),
    (_TAG_U, _TAG_W, _TAG_V),
)


def ref_lift(k: int, A: BitMatrix, B: BitMatrix, C: BitMatrix):
    """The lift of a partition that meets the lift's precondition, unchecked."""
    n = A.cols
    arrs = [M.to_array() for M in (A, B, C)]

    def col(block: int, j: int, tag: tuple[int, int]) -> tuple[int, ...]:
        return tuple(arrs[block][:, j]) + tag

    head: list[tuple] = []
    used: dict[int, list] = {j: [] for j in range(n)}
    for j in range(4 * k):
        head.append((col(0, j, (0, 0)), col(1, j, (0, 0)), col(2, j, (0, 0))))
        used[j].append(((0, 0), (0, 0), (0, 0)))
    for j, combo in enumerate(_HEAD_COMBOS):
        head.append((col(0, j, combo[0]), col(1, j, combo[1]), col(2, j, combo[2])))
        used[j].append(combo)

    tail: list[tuple] = [
        (
            (0,) * (2 * k) + _TAG_U,
            (0,) * (2 * k) + _TAG_V,
            (0,) * (2 * k) + _TAG_W,
        )
    ]
    for j in range(n):
        remaining_tags = [
            [t for t in (_TAG_U, _TAG_V, _TAG_W, (0, 0)) if t not in
             [u[b] for u in used[j]]]
            for b in range(3)
        ]
        tail.extend(ref_pair_remaining(col, j, remaining_tags))

    tail.sort(key=lambda trip: trip[0])
    triples = head + tail

    mats = []
    for b in range(3):
        bits = np.array([trip[b] for trip in triples], dtype=np.uint8).T
        mats.append(BitMatrix.from_bits(bits))
    return tuple(mats)


def ref_pair_remaining(col, j: int, remaining):
    """First-fit pairing of group j's leftover tags into zero-sum triples."""
    out = []
    a_tags, b_tags, c_tags = (list(r) for r in remaining)
    while a_tags:
        ta = a_tags.pop(0)
        for tb in b_tags:
            tc = (ta[0] ^ tb[0], ta[1] ^ tb[1])
            if tc in c_tags:
                out.append((col(0, j, ta), col(1, j, tb), col(2, j, tc)))
                b_tags.remove(tb)
                c_tags.remove(tc)
                break
        else:
            raise AssertionError(f"could not pair leftover tags of group {j}")
    return out


# ---------------------------------------------------------------------------
# the value representation against the reference
# ---------------------------------------------------------------------------


@functools.cache
def _partition(a: int):
    """The chain's partition at parameter a, lifted by the reference."""
    if a == 3:
        return hcms.a3_partition()
    return ref_lift(a - 1, *_partition(a - 1))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_column_values_match_reference(data):
    # up to 62 rows, the int64 values and the Python ints agree, and the
    # values give the matrix back
    rows = data.draw(st.integers(0, 62))
    cols = data.draw(st.integers(0, 40))
    seed = data.draw(st.integers(0, 2**32 - 1))
    M = gf2.random_matrix(rows, cols, np.random.default_rng(seed))
    vals = hcms._column_values(M)
    assert vals.dtype == np.int64
    assert vals.tolist() == ref_column_values(M).tolist()
    assert hcms._from_values(vals, rows) == M


def test_lift_matches_reference_on_the_chain():
    # a = 3 -> 4 -> 5 -> 6, bit for bit, and each reference lift is valid
    part = hcms.a3_partition()
    for k in (3, 4, 5):
        want = ref_lift(k, *part)
        assert hcms.check_lift_precondition(*want) == k + 1
        part = hcms._lift(k, *part)
        assert part == want


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_lift_of_permuted_tail_matches_reference(data):
    # one permutation of positions 4k..n-1, applied to all three blocks,
    # keeps the sums, the column set and the pivots of [A; B]
    k = data.draw(st.sampled_from((3, 4)))
    part = _partition(k)
    n = part[0].cols
    perm = data.draw(st.permutations(range(4 * k, n)))
    order = np.r_[np.arange(4 * k), np.asarray(perm, dtype=np.int64)]
    moved = tuple(BitMatrix.from_bits(M.to_array()[:, order]) for M in part)
    assert hcms.check_lift_precondition(*moved) == k
    assert hcms._lift(k, *moved) == ref_lift(k, *moved)


_TRIVIAL = tuple(BitMatrix.from_bits(b) for b in ([[1], [0]], [[0], [1]], [[1], [1]]))


def _damage(data, Q):
    """Q undamaged or with one drawn damage: a swap of two columns within
    one block or within all blocks, a column copied over another in one
    block or in all, one flipped bit, or a wrong shape."""
    arrs = [M.to_array().copy() for M in Q]
    n, rows = arrs[0].shape[1], arrs[0].shape[0]
    kind = data.draw(st.sampled_from(
        ("swap", "swap_all", "copy", "copy_all", "flip", "drop_col", "drop_col_all",
         "drop_row", "drop_block", "none")
    ))
    b = data.draw(st.integers(0, len(arrs) - 1))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    targets = range(len(arrs)) if kind.endswith("_all") else [b]
    for t in targets:
        if kind.startswith("swap"):
            arrs[t][:, [i, j]] = arrs[t][:, [j, i]]
        elif kind.startswith("copy"):
            arrs[t][:, j] = arrs[t][:, i]
        elif kind.startswith("drop_col"):
            arrs[t] = np.delete(arrs[t], i, axis=1)
    if kind == "flip":
        arrs[b][data.draw(st.integers(0, rows - 1)), i] ^= 1
    elif kind == "drop_row":
        arrs[b] = arrs[b][1:]
    elif kind == "drop_block":
        arrs = arrs[:1]
    return tuple(BitMatrix.from_bits(a) for a in arrs)


def _outcome(check, Q):
    try:
        check(Q)
    except NotHammingPartitionError as exc:
        return str(exc)
    return None


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_validate_partition_matches_reference(data):
    Q = _damage(data, data.draw(st.sampled_from((_partition(3), _TRIVIAL))))
    assert _outcome(hcms.validate_partition, Q) == _outcome(ref_validate_partition, Q)
